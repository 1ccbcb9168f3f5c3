package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestOpRecordEpochRoundTrip(t *testing.T) {
	want := Record{
		Session: 7, Seq: 9, Shard: 3, Kind: OpSet, Arg: -4, Val: -4,
		Ver: 12, Epoch: 5, OK: true,
	}
	body, n, err := decodeFrame(encodeOp(want), maxBody)
	if err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	if n != recHeaderLen+opObjBodyLen {
		t.Fatalf("frame consumed %d bytes, want %d", n, recHeaderLen+opObjBodyLen)
	}
	got, isRestart, err := parseBody(body)
	if err != nil || isRestart {
		t.Fatalf("parse: restart=%v err=%v", isRestart, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// legacyOpBody builds a root-register op body in one of the retired
// fixed-width layouts: type 1 (no epoch, 46 bytes) or type 5 (trailing
// epoch, 54 bytes).
func legacyOpBody(typ byte) []byte {
	body := []byte{typ}
	body = binary.BigEndian.AppendUint64(body, 7)  // session
	body = binary.BigEndian.AppendUint64(body, 9)  // seq
	body = binary.BigEndian.AppendUint32(body, 3)  // shard
	body = append(body, byte(OpAdd))               // kind
	body = binary.BigEndian.AppendUint64(body, 2)  // arg
	body = binary.BigEndian.AppendUint64(body, 6)  // val
	body = binary.BigEndian.AppendUint64(body, 12) // ver
	if typ == 5 {
		body = binary.BigEndian.AppendUint64(body, 1) // epoch
	}
	return body
}

// TestLegacyRecordTypesRefused: WAL bodies in the retired type-1 and
// type-5 layouts are corruption, whether they arrive as a log frame, a
// replicated body, or a sub-record of an atomic group.
func TestLegacyRecordTypesRefused(t *testing.T) {
	for _, typ := range []byte{1, 5} {
		body, _, err := decodeFrame(appendFrame(nil, legacyOpBody(typ)), maxBody)
		if err != nil {
			t.Fatalf("type %d: frame: %v", typ, err)
		}
		if _, _, err := parseBody(body); !errors.Is(err, errCorrupt) {
			t.Errorf("type %d WAL body: got %v, want errCorrupt", typ, err)
		}
		if _, err := ParseRecordBody(body); !errors.Is(err, errCorrupt) {
			t.Errorf("type %d replicated body: got %v, want errCorrupt", typ, err)
		}
		group := []byte{recTypeAtomic, 0, 1}
		group = binary.BigEndian.AppendUint16(group, uint16(len(body)))
		group = append(group, body...)
		if _, err := ParseRecordBody(group); !errors.Is(err, errCorrupt) {
			t.Errorf("type %d inside an atomic group: got %v, want errCorrupt", typ, err)
		}
	}
}

// TestLegacyRecordTypeFailsRecovery: a retired-layout record refuses
// recovery even as the last record of the last segment, where a torn
// write would be truncated away: it is an old data directory, not a
// crash artifact, and truncating it would silently drop its history.
func TestLegacyRecordTypeFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(appendFrame(nil, legacyOpBody(5)))
	f.Close()
	l, _, err = Open(Options{Dir: dir, Policy: SyncNever})
	if err == nil {
		l.Close()
		t.Fatal("recovery accepted a type-5 record")
	}
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("recovery failed with %v, want errCorrupt", err)
	}
}

func TestStateImageEpochRoundTrip(t *testing.T) {
	want := map[uint32]ShardState{
		0: {Epoch: 2, Ver: 9, Val: 42, Dedup: map[uint64]DedupEntry{
			11: {Seq: 3, Val: 42, Ver: 9},
		}},
		5: {Epoch: 0, Ver: 1, Val: -1},
	}
	got, err := DecodeState(EncodeState(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for id, w := range want {
		g := got[id]
		if g.Epoch != w.Epoch || g.Ver != w.Ver || g.Val != w.Val {
			t.Fatalf("shard %d: got %+v, want %+v", id, g, w)
		}
	}
	if e := got[0].Dedup[11]; e.Seq != 3 || e.Val != 42 || e.Ver != 9 {
		t.Fatalf("shard 0 dedup entry: %+v", e)
	}
}

// legacySnapshotBody builds a one-shard snapshot image (shard 2, ver 8,
// val 80, no dedup entries) in one of the retired layouts: type 3 and 4
// carry no per-shard epoch, type 6 does; none carries an object table.
func legacySnapshotBody(typ byte) []byte {
	body := []byte{typ}
	body = binary.BigEndian.AppendUint64(body, 17) // cover
	body = binary.BigEndian.AppendUint64(body, 4)  // markers
	body = binary.BigEndian.AppendUint32(body, 1)  // shards
	body = binary.BigEndian.AppendUint32(body, 2)  // id
	if typ == 6 {
		body = binary.BigEndian.AppendUint64(body, 0) // epoch
	}
	body = binary.BigEndian.AppendUint64(body, 8)  // ver
	body = binary.BigEndian.AppendUint64(body, 80) // val
	return binary.BigEndian.AppendUint32(body, 0)  // dedup entries
}

// TestLegacySnapshotTypesRefused: state images in the retired type-3,
// type-4 and type-6 layouts are corruption, and a data directory whose
// only snapshot is one of them refuses to recover.
func TestLegacySnapshotTypesRefused(t *testing.T) {
	for _, typ := range []byte{3, 4, 6} {
		body := legacySnapshotBody(typ)
		if _, _, _, err := decodeSnapshot(body); !errors.Is(err, errCorrupt) {
			t.Errorf("type %d image: got %v, want errCorrupt", typ, err)
		}
		if _, err := DecodeState(body); !errors.Is(err, errCorrupt) {
			t.Errorf("type %d shipped state: got %v, want errCorrupt", typ, err)
		}
		dir := t.TempDir()
		snap := filepath.Join(dir, "snap-0000000000000017.snap")
		if err := os.WriteFile(snap, appendFrame(nil, body), 0o644); err != nil {
			t.Fatal(err)
		}
		l, _, err := Open(Options{Dir: dir, Policy: SyncNever})
		if err == nil {
			l.Close()
			t.Errorf("type %d: recovery accepted the snapshot", typ)
		} else if !errors.Is(err, errCorrupt) {
			t.Errorf("type %d: recovery failed with %v, want errCorrupt", typ, err)
		}
	}
}

// TestReplayEpochFencing is the recovery half of the forked-history fix:
// after a state install fences a shard at a higher epoch, a straggler
// record from the deposed epoch sitting later in the WAL must be
// skipped, same-epoch continuations must apply, and a contiguous
// higher-epoch record (a promotion observed before any new-epoch
// snapshot) must be adopted.
func TestReplayEpochFencing(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})

	// A replicated install left shard 0 at (epoch 1, ver 2), fenced by
	// this snapshot — exactly what InstallState persists.
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: {Epoch: 1, Ver: 2, Val: 50}}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	appendRec := func(r Record) {
		t.Helper()
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("wait durable: %v", err)
		}
	}
	// Fenced fork straggler: epoch 0 lost to the install above.
	appendRec(Record{Shard: 0, Kind: OpSet, Arg: 99, Val: 99, Ver: 4, Epoch: 0, OK: true})
	// Same-epoch continuation of the installed line.
	appendRec(Record{Shard: 0, Kind: OpSet, Arg: 60, Val: 60, Ver: 3, Epoch: 1, OK: true})
	// Cross-epoch continuation: a promoted primary's first post-bump
	// record, pulled before any epoch-2 snapshot exists locally.
	appendRec(Record{Shard: 0, Kind: OpSet, Arg: 70, Val: 70, Ver: 4, Epoch: 2, OK: true})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l, rec := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	got := rec.Shards[0]
	if got.Epoch != 2 || got.Ver != 4 || got.Val != 70 {
		t.Fatalf("recovered shard 0: %+v, want epoch 2 ver 4 val 70", got)
	}
}

// TestReplayHigherEpochRewriteIsCorruption: a higher-epoch record at or
// below the recovering state's version would rewrite acknowledged
// history without the install snapshot required to fence it. Recovery
// must refuse rather than guess.
func TestReplayHigherEpochRewriteIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	if err := l.WriteSnapshot(func() map[uint32]ShardState {
		return map[uint32]ShardState{0: {Epoch: 1, Ver: 5, Val: 5}}
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	lsn, err := l.Append(Record{Shard: 0, Kind: OpSet, Arg: 9, Val: 9, Ver: 4, Epoch: 2, OK: true})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("wait durable: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	if _, _, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}}); err == nil ||
		!strings.Contains(err.Error(), "missing epoch-fencing snapshot") {
		t.Fatalf("reopen: err %v, want epoch-fencing corruption", err)
	}
}

// TestReadRecordsDeletedSegmentIsPruned: a segment file unlinked by a
// concurrent snapshot prune after the reader captured the segment list
// must read as ErrPruned (resync via state image), not a hard internal
// error that kills the replication stream.
func TestReadRecordsDeletedSegmentIsPruned(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	var s ShardState
	appendOps(t, l, &s, 0, 5, 1, 40)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %d (err %v)", len(segs), err)
	}
	sort.Strings(segs)
	// Unlink the oldest segment while the log still lists it, exactly
	// the window a concurrent prune leaves open.
	if err := os.Remove(segs[0]); err != nil {
		t.Fatalf("remove %s: %v", segs[0], err)
	}
	if _, _, err := l.ReadRecords(0, 10); !errors.Is(err, ErrPruned) {
		t.Fatalf("read into deleted segment: err %v, want ErrPruned", err)
	}
}
