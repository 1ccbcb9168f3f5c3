package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"kexclusion/internal/object"
)

// FuzzRecordDecode hammers the WAL record decoder with arbitrary
// bytes: it must never panic, never over-read, and never mis-decode —
// any frame it accepts must re-encode to the identical bytes (the
// encoding is canonical: fixed-width fields, no padding freedom).
func FuzzRecordDecode(f *testing.F) {
	// Root-register ops are type-8 records like every other kind.
	f.Add(encodeOp(Record{Session: 7, Seq: 3, Shard: 2, Kind: OpAdd, Arg: -5, Val: 37, Ver: 12, OK: true}))
	f.Add(encodeOp(Record{Session: 0, Seq: 0, Shard: 0, Kind: OpSet, Arg: 1 << 60, Val: 1 << 60, Ver: 1, Epoch: 3, OK: true}))
	f.Add(encodeRestart())
	f.Add(encodeOp(Record{Kind: OpAdd, Val: 1, Ver: 1, OK: true})[:20]) // torn body
	f.Add([]byte{0, 0, 0, 1, 0xba, 0xdc, 0x0f, 0xee, 0x01})             // bad CRC
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 2, 3})       // absurd length
	f.Add(bytes.Repeat(encodeRestart(), 3))                             // several frames
	f.Add(encodeOp(Record{Session: 1, Seq: 2, Kind: OpMapCAS, Obj: "m", Key: "k", Arg: 5, Arg2: 4, Val: 4, Ver: 9}))
	f.Add(encodeOp(Record{Atomic: []Record{
		{Session: 1, Seq: 3, Shard: 0, Kind: OpRegAdd, Obj: "a", Arg: -1, Val: 9, Ver: 10, OK: true},
		{Session: 1, Seq: 4, Shard: 1, Kind: OpAdd, Arg: 1, Val: 1, Ver: 2, OK: true},
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the input like segment replay does, stopping at the
		// first torn or corrupt frame.
		off := 0
		for off < len(data) {
			body, sz, err := decodeFrame(data[off:], maxBody)
			if err != nil {
				if !errors.Is(err, errTorn) && !errors.Is(err, errCorrupt) {
					t.Fatalf("decodeFrame: untyped error %v", err)
				}
				return
			}
			if sz <= 0 || off+sz > len(data) {
				t.Fatalf("decodeFrame consumed %d of %d available bytes", sz, len(data)-off)
			}
			rec, isRestart, err := parseBody(body)
			if err != nil {
				if !errors.Is(err, errCorrupt) {
					t.Fatalf("parseBody: untyped error %v", err)
				}
				return
			}
			var re []byte
			if isRestart {
				re = encodeRestart()
			} else {
				re = encodeOp(rec)
			}
			if !bytes.Equal(re, data[off:off+sz]) {
				t.Fatalf("decode/encode mismatch at offset %d:\n got %x\nfrom %x", off, re, data[off:off+sz])
			}
			off += sz
		}
	})
}

// FuzzSnapshotDecode hammers the type-7 snapshot decoder: it must never
// panic, any image it accepts must re-encode to the identical bytes
// (ids and sessions are strictly ascending, verdict bytes are 0 or 1),
// and no declared count may drive an allocation past a small multiple
// of the body size.
func FuzzSnapshotDecode(f *testing.F) {
	var s ShardState
	StepOp(&s, 0, 3, 1, Op{Kind: OpAdd, Arg: 5})
	StepOp(&s, 0, 3, 2, Op{Kind: OpCreate, Obj: "kv", Arg: int64(object.TypeMap)})
	StepOp(&s, 0, 3, 3, Op{Kind: OpMapPut, Obj: "kv", Key: "a", Arg: 7})
	StepOp(&s, 0, 4, 1, Op{Kind: OpCreate, Obj: "q", Arg: int64(object.TypeQueue)})
	StepOp(&s, 0, 4, 2, Op{Kind: OpQEnq, Obj: "q", Arg: 9})
	StepOp(&s, 0, 4, 3, Op{Kind: OpMapCAS, Obj: "kv", Key: "a", Arg: 1, Arg2: 99}) // rejected
	StepOp(&s, 0, 5, 1, Op{Kind: OpCreate, Obj: "snap", Arg: int64(object.TypeSnapshot), Arg2: 2})
	StepOp(&s, 0, 5, 2, Op{Kind: OpCreate, Obj: "r", Arg: int64(object.TypeRegister)})
	f.Add(encodeSnapshot(0, 0, nil))
	f.Add(encodeSnapshot(17, 2, map[uint32]ShardState{0: {Ver: 1, Val: -1, Epoch: 3}}))
	f.Add(encodeSnapshot(40, 1, map[uint32]ShardState{1: s, 7: {Ver: 2}}))
	huge := encodeSnapshot(0, 0, nil)
	binary.BigEndian.PutUint32(huge[17:], ^uint32(0))
	f.Add(huge)
	f.Add([]byte{recTypeSnapshot})

	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cover, markers, shards, err := decodeSnapshot(body)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(body))+1<<20 {
			t.Fatalf("decoding a %d-byte image allocated %d bytes", len(body), alloc)
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("decodeSnapshot: untyped error %v", err)
			}
			return
		}
		if re := encodeSnapshot(cover, markers, shards); !bytes.Equal(re, body) {
			t.Fatalf("decode/encode mismatch:\n got %x\nfrom %x", re, body)
		}
	})
}
