// Request and response frames. The client sends every operation in an
// ObjBatch frame and the server answers every ObjBatch with
// BatchResponse frames; there is no other shape on the client
// connection after the Hello.
//
//   - 0xC1 ObjBatch: a pipeline of 1 to MaxBatchOps operations. Object
//     kinds carry a name (and a key for maps); root-register and
//     control kinds (get, add, set, ping, stats) leave name, key and
//     Arg2 empty. A one-op flush is a one-op frame.
//   - 0xC2 atomic ObjBatch: up to MaxAtomicOps mutations applied
//     all-or-nothing across shards — either every member commits under
//     one WAL record or every member answers StatusAtomicAbort and no
//     object is touched.
//   - 0xB5 BatchResponse: the responses to one ObjBatch, in request
//     order. A response set too large for one frame (stats payloads)
//     is split across several BatchResponse frames; the client consumes
//     them by count, not by frame.
//
// Ordering and acknowledgement guarantees are per operation: operations
// apply in the order sent on the connection, every response carries its
// request's ID, and a mutation is acknowledged only at the configured
// durability point. Batching changes the cost: the server drains a
// whole pipeline, funnels its WAL appends into one group-commit wait
// (one fsync can acknowledge the entire batch under -fsync always), and
// flushes all responses in one write.
//
// The op encoding is self-describing: a fixed header carrying every
// numeric field plus name/key lengths, then the name and key bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"kexclusion/internal/object"
)

// MaxBatchOps bounds the operations in one ObjBatch frame (and the
// responses in one BatchResponse frame). A peer announcing more is
// treated as corrupt, like an oversized frame.
const MaxBatchOps = 1024

// MaxAtomicOps bounds the operations in one atomic group — small by
// design, because the server holds every touched shard exclusively for
// the group's duration.
const MaxAtomicOps = object.MaxAtomicOps

// Payload markers: the first byte of every request and response frame.
const (
	objBatchMarker  = 0xC1
	objAtomicMarker = 0xC2
	batchRespMarker = 0xB5
)

// objOpFixedLen is the fixed header of one op inside an object frame:
// id + kind + shard + arg + session + seq + arg2 + nameLen + keyLen.
const objOpFixedLen = 8 + 1 + 4 + 8 + 8 + 8 + 8 + 1 + 2

// validateObjFields checks the object fields against the object caps.
// Object kinds require a name; root-register and control kinds must
// leave name, key and arg2 zero so their encoding stays canonical.
func validateObjFields(r Request) error {
	if r.Kind.IsObject() {
		if len(r.Obj) == 0 || len(r.Obj) > object.MaxNameLen {
			return fmt.Errorf("wire: object name of %d bytes outside [1,%d]", len(r.Obj), object.MaxNameLen)
		}
	} else if r.Obj != "" || r.Key != "" || r.Arg2 != 0 {
		return fmt.Errorf("wire: %s op carries object fields", r.Kind)
	}
	if len(r.Key) > object.MaxKeyLen {
		return fmt.Errorf("wire: object key of %d bytes exceeds %d", len(r.Key), object.MaxKeyLen)
	}
	return nil
}

// appendObjOp serializes one op in the object encoding.
func appendObjOp(b []byte, r Request) []byte {
	b = binary.BigEndian.AppendUint64(b, r.ID)
	b = append(b, byte(r.Kind))
	b = binary.BigEndian.AppendUint32(b, r.Shard)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Arg))
	b = binary.BigEndian.AppendUint64(b, r.Session)
	b = binary.BigEndian.AppendUint64(b, r.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Arg2))
	b = append(b, byte(len(r.Obj)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Key)))
	b = append(b, r.Obj...)
	return append(b, r.Key...)
}

// parseObjOp decodes one op in the object encoding, returning the
// bytes consumed.
func parseObjOp(b []byte) (Request, int, error) {
	if len(b) < objOpFixedLen {
		return Request{}, 0, fmt.Errorf("wire: object op truncated (%d bytes)", len(b))
	}
	r := Request{
		ID:      binary.BigEndian.Uint64(b[0:]),
		Kind:    Kind(b[8]),
		Shard:   binary.BigEndian.Uint32(b[9:]),
		Arg:     int64(binary.BigEndian.Uint64(b[13:])),
		Session: binary.BigEndian.Uint64(b[21:]),
		Seq:     binary.BigEndian.Uint64(b[29:]),
		Arg2:    int64(binary.BigEndian.Uint64(b[37:])),
	}
	nameLen, keyLen := int(b[45]), int(binary.BigEndian.Uint16(b[46:]))
	n := objOpFixedLen + nameLen + keyLen
	if len(b) < n {
		return Request{}, 0, fmt.Errorf("wire: object op declares %d name+key bytes, has %d", nameLen+keyLen, len(b)-objOpFixedLen)
	}
	r.Obj = string(b[objOpFixedLen : objOpFixedLen+nameLen])
	r.Key = string(b[objOpFixedLen+nameLen : n])
	if err := validateObjFields(r); err != nil {
		return Request{}, 0, err
	}
	return r, n, nil
}

// ObjBatch is the request frame: a pipeline (or, when Atomic, an
// all-or-nothing group) of operations.
type ObjBatch struct {
	Reqs []Request
	// Atomic selects the 0xC2 all-or-nothing group encoding: every
	// member must be a dedup-eligible mutation and the count is capped
	// at MaxAtomicOps instead of MaxBatchOps.
	Atomic bool
}

// batchCap is the op-count cap of a batch flavor.
func batchCap(atomic bool) int {
	if atomic {
		return MaxAtomicOps
	}
	return MaxBatchOps
}

// Encode serializes the batch payload: marker, count, then the
// self-describing op encodings back to back.
func (ob ObjBatch) Encode() ([]byte, error) {
	marker := byte(objBatchMarker)
	if ob.Atomic {
		marker = objAtomicMarker
	}
	if cap := batchCap(ob.Atomic); len(ob.Reqs) == 0 || len(ob.Reqs) > cap {
		return nil, fmt.Errorf("wire: object batch of %d ops outside [1,%d]", len(ob.Reqs), cap)
	}
	out := make([]byte, 3, 3+len(ob.Reqs)*(objOpFixedLen+16))
	out[0] = marker
	binary.BigEndian.PutUint16(out[1:], uint16(len(ob.Reqs)))
	for _, r := range ob.Reqs {
		if err := validateObjFields(r); err != nil {
			return nil, err
		}
		out = appendObjOp(out, r)
	}
	return out, nil
}

// ParseRequestFrame decodes a request payload of either flavor.
func ParseRequestFrame(b []byte) (ObjBatch, error) {
	if len(b) < 3 || (b[0] != objBatchMarker && b[0] != objAtomicMarker) {
		return ObjBatch{}, fmt.Errorf("wire: not an object batch payload (%d bytes)", len(b))
	}
	ob := ObjBatch{Atomic: b[0] == objAtomicMarker}
	n := int(binary.BigEndian.Uint16(b[1:]))
	if cap := batchCap(ob.Atomic); n == 0 || n > cap {
		return ObjBatch{}, fmt.Errorf("wire: object batch of %d ops outside [1,%d]", n, cap)
	}
	ob.Reqs = make([]Request, 0, n)
	off := 3
	for i := 0; i < n; i++ {
		r, used, err := parseObjOp(b[off:])
		if err != nil {
			return ObjBatch{}, fmt.Errorf("wire: object batch op %d: %w", i, err)
		}
		ob.Reqs = append(ob.Reqs, r)
		off += used
	}
	if off != len(b) {
		return ObjBatch{}, fmt.Errorf("wire: object batch has %d trailing bytes", len(b)-off)
	}
	return ob, nil
}

// ReadRequestFrame reads and decodes one request frame.
func ReadRequestFrame(r io.Reader) (ObjBatch, error) {
	b, err := ReadFrame(r)
	if err != nil {
		return ObjBatch{}, err
	}
	return ParseRequestFrame(b)
}

// BatchResponse is the response frame: responses in request order,
// each length-prefixed because Data makes them variable-width.
type BatchResponse struct {
	Resps []Response
}

// appendResp appends one length-prefixed response encoding.
func appendResp(b, enc []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(enc)))
	return append(b, enc...)
}

// Encode serializes the batch response payload.
func (b BatchResponse) Encode() []byte {
	out := []byte{batchRespMarker, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(out[1:], uint32(len(b.Resps)))
	for _, r := range b.Resps {
		out = appendResp(out, r.Encode())
	}
	return out
}

// ParseBatchResponse decodes a batch response payload.
func ParseBatchResponse(b []byte) (BatchResponse, error) {
	if len(b) < 5 || b[0] != batchRespMarker {
		return BatchResponse{}, fmt.Errorf("wire: not a batch response payload")
	}
	n := binary.BigEndian.Uint32(b[1:])
	if n == 0 || n > MaxBatchOps {
		return BatchResponse{}, fmt.Errorf("wire: batch of %d responses outside [1,%d]", n, MaxBatchOps)
	}
	resps := make([]Response, 0, n)
	off := 5
	for i := uint32(0); i < n; i++ {
		if len(b)-off < 4 {
			return BatchResponse{}, fmt.Errorf("wire: batch response truncated at op %d", i)
		}
		ln := int(binary.BigEndian.Uint32(b[off:]))
		off += 4
		if ln < 0 || len(b)-off < ln {
			return BatchResponse{}, fmt.Errorf("wire: batch response op %d declares %d bytes, has %d", i, ln, len(b)-off)
		}
		r, err := ParseResponse(b[off : off+ln])
		if err != nil {
			return BatchResponse{}, err
		}
		resps = append(resps, r)
		off += ln
	}
	if off != len(b) {
		return BatchResponse{}, fmt.Errorf("wire: batch response has %d trailing bytes", len(b)-off)
	}
	return BatchResponse{Resps: resps}, nil
}

// ReadBatchResponse reads and decodes one batch response frame.
func ReadBatchResponse(r io.Reader) (BatchResponse, error) {
	b, err := ReadFrame(r)
	if err != nil {
		return BatchResponse{}, err
	}
	return ParseBatchResponse(b)
}

// WriteBatchResponses frames and writes the responses to one request
// frame, splitting into several BatchResponse frames only when the
// encoded responses would overflow MaxFrame (stats payloads can be
// large). Responses stay in order across the split.
func WriteBatchResponses(w io.Writer, resps []Response) error {
	enc := make([][]byte, len(resps))
	for i, r := range resps {
		enc[i] = r.Encode()
	}
	for len(enc) > 0 {
		n, size := 0, 5
		for n < len(enc) && n < MaxBatchOps {
			step := 4 + len(enc[n])
			if n > 0 && size+step > MaxFrame {
				break
			}
			size += step
			n++
		}
		out := make([]byte, 5, size)
		out[0] = batchRespMarker
		binary.BigEndian.PutUint32(out[1:], uint32(n))
		for _, e := range enc[:n] {
			out = appendResp(out, e)
		}
		if err := WriteFrame(w, out); err != nil {
			return err
		}
		enc = enc[n:]
	}
	return nil
}

// EncodeSlots serializes a snapshot scan result (8 bytes per slot),
// the Data payload of a KindSnapScan response.
func EncodeSlots(slots []int64) []byte {
	b := make([]byte, 0, len(slots)*8)
	for _, v := range slots {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// DecodeSlots deserializes a snapshot scan Data payload.
func DecodeSlots(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("wire: snapshot scan payload of %d bytes is not a multiple of 8", len(b))
	}
	slots := make([]int64, len(b)/8)
	for i := range slots {
		slots[i] = int64(binary.BigEndian.Uint64(b[i*8:]))
	}
	return slots, nil
}
