package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func objKinds() []Kind {
	return []Kind{
		KindCreate, KindRegGet, KindRegAdd, KindRegSet,
		KindMapGet, KindMapPut, KindMapCAS, KindMapDel,
		KindQEnq, KindQDeq, KindQLen, KindSnapUpdate, KindSnapScan,
	}
}

// objReq builds a request of object kind k with every field set.
func objReq(k Kind) Request {
	r := Request{ID: 7, Kind: k, Shard: 3, Arg: -42, Session: 9, Seq: 11,
		Arg2: 1 << 40, Obj: "orders"}
	if k == KindMapGet || k == KindMapPut || k == KindMapCAS || k == KindMapDel {
		r.Key = "user:1234"
	}
	return r
}

// TestPipelineFrameRoundTrip: a pipeline of root-register ops in one
// request frame.
func TestPipelineFrameRoundTrip(t *testing.T) {
	in := ObjBatch{Reqs: []Request{
		{ID: 1, Kind: KindAdd, Shard: 3, Arg: -7, Session: 0xfeed, Seq: 9},
		{ID: 2, Kind: KindGet, Shard: 0},
		{ID: 3, Kind: KindSet, Shard: 1, Arg: 42, Session: 0xfeed, Seq: 10},
	}}
	b, err := in.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if b[0] != objBatchMarker {
		t.Fatalf("marker %#x, want %#x", b[0], objBatchMarker)
	}
	out, err := ParseRequestFrame(b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	in := BatchResponse{Resps: []Response{
		{ID: 1, Status: StatusOK, Value: 5},
		{ID: 2, Status: StatusOK, Flags: FlagDuplicate, Value: 5},
		{ID: 3, Status: StatusBadShard, Data: []byte("shard 9 out of range")},
	}}
	out, err := ParseBatchResponse(in.Encode())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(out.Resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(out.Resps))
	}
	if out.Resps[1].Flags != FlagDuplicate || out.Resps[1].Value != 5 {
		t.Errorf("dupe response mangled: %+v", out.Resps[1])
	}
	if string(out.Resps[2].Data) != "shard 9 out of range" {
		t.Errorf("data mangled: %q", out.Resps[2].Data)
	}
}

func TestBatchBounds(t *testing.T) {
	// Zero ops is corrupt, not an empty pipeline.
	if _, err := ParseRequestFrame([]byte{objBatchMarker, 0, 0}); err == nil {
		t.Error("empty batch accepted")
	}
	// A count beyond the flavor's cap is refused before any allocation.
	if _, err := ParseRequestFrame([]byte{objBatchMarker, 0xff, 0xff}); err == nil {
		t.Error("oversized batch count accepted")
	}
	over := []byte{objAtomicMarker, 0, 0}
	binary.BigEndian.PutUint16(over[1:], MaxAtomicOps+1)
	if _, err := ParseRequestFrame(over); err == nil {
		t.Error("oversized atomic count accepted")
	}
	// Same discipline on the response side.
	if _, err := ParseBatchResponse([]byte{batchRespMarker, 0, 0, 0, 0}); err == nil {
		t.Error("empty batch response accepted")
	}
	if _, err := ParseBatchResponse([]byte{batchRespMarker, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("oversized batch response count accepted")
	}
	trailing := append(BatchResponse{Resps: []Response{{ID: 1}}}.Encode(), 0x00)
	if _, err := ParseBatchResponse(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestWriteBatchResponsesSplits: a response set too large for one frame
// is split across several, preserving order and count.
func TestWriteBatchResponsesSplits(t *testing.T) {
	big := make([]byte, MaxFrame/3)
	resps := []Response{
		{ID: 1, Status: StatusOK, Data: big},
		{ID: 2, Status: StatusOK, Data: big},
		{ID: 3, Status: StatusOK, Data: big},
		{ID: 4, Status: StatusOK},
	}
	var buf bytes.Buffer
	if err := WriteBatchResponses(&buf, resps); err != nil {
		t.Fatalf("write: %v", err)
	}
	var got []Response
	frames := 0
	for buf.Len() > 0 {
		br, err := ReadBatchResponse(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		got = append(got, br.Resps...)
		frames++
	}
	if frames < 2 {
		t.Errorf("expected a split, got %d frame(s)", frames)
	}
	if len(got) != len(resps) {
		t.Fatalf("got %d responses, want %d", len(got), len(resps))
	}
	for i := range resps {
		if got[i].ID != resps[i].ID {
			t.Errorf("response %d: id %d, want %d", i, got[i].ID, resps[i].ID)
		}
	}
}

// TestObjRequestRoundTrip: every object kind survives a one-op frame.
func TestObjRequestRoundTrip(t *testing.T) {
	for _, k := range objKinds() {
		r := objReq(k)
		b, err := ObjBatch{Reqs: []Request{r}}.Encode()
		if err != nil {
			t.Fatalf("%v: encode: %v", k, err)
		}
		f, err := ParseRequestFrame(b)
		if err != nil || f.Atomic || len(f.Reqs) != 1 || !reflect.DeepEqual(f.Reqs[0], r) {
			t.Fatalf("%v: round trip got %+v want %+v err %v", k, f, r, err)
		}
	}
}

func TestObjBatchRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Kind: KindCreate, Shard: 0, Arg: 2, Session: 5, Seq: 1, Obj: "m"},
		{ID: 2, Kind: KindMapPut, Shard: 0, Arg: 10, Session: 5, Seq: 2, Obj: "m", Key: "k"},
		// Root-register kinds ride along with empty object fields.
		{ID: 3, Kind: KindAdd, Shard: 1, Arg: 4, Session: 5, Seq: 3},
		{ID: 4, Kind: KindMapGet, Shard: 0, Obj: "m", Key: "k"},
	}
	for _, atomic := range []bool{false, true} {
		ob := ObjBatch{Reqs: reqs, Atomic: atomic}
		b, err := ob.Encode()
		if err != nil {
			t.Fatalf("atomic=%v: encode: %v", atomic, err)
		}
		got, err := ParseRequestFrame(b)
		if err != nil || !reflect.DeepEqual(got, ob) {
			t.Fatalf("atomic=%v: round trip got %+v want %+v err %v", atomic, got, ob, err)
		}
	}
}

func TestObjEncodingRejectsBadFields(t *testing.T) {
	cases := []struct {
		name string
		r    Request
	}{
		{"object kind without name", Request{Kind: KindRegGet}},
		{"name over cap", Request{Kind: KindRegGet, Obj: strings.Repeat("n", 65)}},
		{"key over cap", Request{Kind: KindMapGet, Obj: "m", Key: strings.Repeat("k", 513)}},
		{"root kind with name", Request{Kind: KindAdd, Obj: "x"}},
		{"root kind with key", Request{Kind: KindSet, Key: "x"}},
		{"root kind with arg2", Request{Kind: KindGet, Arg2: 1}},
	}
	for _, c := range cases {
		if _, err := (ObjBatch{Reqs: []Request{c.r}}).Encode(); err == nil {
			t.Errorf("%s: batch encode accepted", c.name)
		}
	}
	if _, err := (ObjBatch{}).Encode(); err == nil {
		t.Error("empty batch encode accepted")
	}
	big := make([]Request, MaxAtomicOps+1)
	for i := range big {
		big[i] = Request{Kind: KindRegAdd, Obj: "r", Arg: 1}
	}
	if _, err := (ObjBatch{Reqs: big, Atomic: true}).Encode(); err == nil {
		t.Error("oversized atomic group accepted")
	}
	if _, err := (ObjBatch{Reqs: big}).Encode(); err != nil {
		t.Errorf("pipeline of %d ops rejected: %v", len(big), err)
	}
}

// retiredRequests returns the request payloads of the retired protocol
// versions for the same add: the 37-byte plain request (kx03), the 0xB4
// batch (kx04) and the 0xC0 single object request.
func retiredRequests() [][]byte {
	plain := binary.BigEndian.AppendUint64(nil, 1) // id
	plain = append(plain, byte(KindAdd))
	plain = binary.BigEndian.AppendUint32(plain, 0)  // shard
	plain = binary.BigEndian.AppendUint64(plain, 1)  // arg
	plain = binary.BigEndian.AppendUint64(plain, 77) // session
	plain = binary.BigEndian.AppendUint64(plain, 1)  // seq
	batch := append([]byte{0xB4, 0, 0, 0, 1}, plain...)
	single := appendObjOp([]byte{0xC0}, Request{ID: 1, Kind: KindRegAdd, Obj: "r", Arg: 1})
	return [][]byte{plain, batch, single}
}

func TestObjParseRejectsGarbage(t *testing.T) {
	good, err := (ObjBatch{Reqs: []Request{{Kind: KindRegSet, Obj: "r", Arg: 1}}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRequestFrame(append(good, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := ParseRequestFrame(good[:len(good)-1]); err == nil {
		t.Error("truncated name accepted")
	}
	over := append([]byte(nil), good...)
	over[2] = 2 // count 1 -> 2
	if _, err := ParseRequestFrame(over); err == nil {
		t.Error("overdeclared batch accepted")
	}
	if _, err := ParseRequestFrame([]byte{0xEE, 1, 2, 3}); err == nil {
		t.Error("unknown marker accepted")
	}
	if _, err := ParseRequestFrame(nil); err == nil {
		t.Error("empty payload accepted")
	}
	for i, b := range retiredRequests() {
		if _, err := ParseRequestFrame(b); err == nil {
			t.Errorf("retired request shape %d (%d bytes, marker %#x) accepted", i, len(b), b[0])
		}
	}
}

func TestSlotsRoundTrip(t *testing.T) {
	slots := []int64{0, -1, 1 << 50, 42}
	got, err := DecodeSlots(EncodeSlots(slots))
	if err != nil || !reflect.DeepEqual(got, slots) {
		t.Fatalf("slots round trip: %v err %v", got, err)
	}
	if _, err := DecodeSlots(make([]byte, 7)); err == nil {
		t.Error("ragged slots payload accepted")
	}
}

// FuzzObjectDecode hammers both frame decoders, ParseRequestFrame and
// ParseBatchResponse: no input may panic, and any payload either one
// accepts must re-encode to the identical bytes.
func FuzzObjectDecode(f *testing.F) {
	for _, k := range objKinds() {
		for _, atomic := range []bool{false, true} {
			b, err := ObjBatch{Reqs: []Request{objReq(k)}, Atomic: atomic}.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	for _, k := range []Kind{KindPing, KindGet, KindAdd, KindSet, KindStats} {
		b, err := ObjBatch{Reqs: []Request{{ID: 1, Kind: k, Shard: 2, Arg: 3, Session: 4, Seq: 5}}}.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	mixed, err := ObjBatch{Reqs: []Request{objReq(KindMapPut), {ID: 8, Kind: KindGet}, objReq(KindQDeq)}}.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	group := make([]Request, MaxAtomicOps)
	for i := range group {
		group[i] = Request{ID: uint64(i + 1), Kind: KindRegAdd, Obj: "r", Arg: 1, Session: 6, Seq: uint64(i + 1)}
	}
	full, err := ObjBatch{Reqs: group, Atomic: true}.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	for _, b := range retiredRequests() {
		f.Add(b)
	}
	f.Add(BatchResponse{Resps: []Response{{ID: 1, Status: StatusOK, Value: 9}}}.Encode())
	f.Add(BatchResponse{Resps: []Response{{ID: 2, Status: StatusBusy, Data: []byte("shed")}}}.Encode())
	f.Add(BatchResponse{Resps: []Response{{ID: 3, Flags: FlagFound | FlagDuplicate, Value: -1}, {ID: 4, Status: StatusAtomicAbort}}}.Encode())
	f.Add([]byte{objBatchMarker, 0xff, 0xff})
	f.Add([]byte{batchRespMarker, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		if frame, err := ParseRequestFrame(b); err == nil {
			re, err := frame.Encode()
			if err != nil {
				t.Fatalf("accepted request frame failed to re-encode: %v", err)
			}
			if !bytes.Equal(re, b) {
				t.Fatalf("request frame re-encoded differently:\n got %x\nfrom %x", re, b)
			}
		}
		if br, err := ParseBatchResponse(b); err == nil {
			if re := br.Encode(); !bytes.Equal(re, b) {
				t.Fatalf("response frame re-encoded differently:\n got %x\nfrom %x", re, b)
			}
		}
	})
}
