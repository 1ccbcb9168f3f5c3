// Package wiretest fakes the server side of the client protocol for
// tests: it reads request frames and writes BatchResponse frames with
// canned answers, so client behaviour (pipelining, retries, redirects,
// poisoning) can be checked without a real kexserved.
package wiretest

import (
	"io"

	"kexclusion/internal/wire"
)

// Hello is the admission a fake one-identity, one-shard server sends.
var Hello = wire.Hello{Status: wire.StatusOK, Identity: 0, N: 1, K: 1, Shards: 1}

// Serve reads one request frame from rw and answers it with
// BatchResponse frames holding answer(req) for each op, in order. It
// returns the ops it read.
func Serve(rw io.ReadWriter, answer func(wire.Request) wire.Response) ([]wire.Request, error) {
	frame, err := wire.ReadRequestFrame(rw)
	if err != nil {
		return nil, err
	}
	resps := make([]wire.Response, len(frame.Reqs))
	for i, req := range frame.Reqs {
		resps[i] = answer(req)
	}
	return frame.Reqs, wire.WriteBatchResponses(rw, resps)
}

// Echo answers an op OK with Value = Arg.
func Echo(req wire.Request) wire.Response {
	return wire.Response{ID: req.ID, Status: wire.StatusOK, Value: req.Arg}
}
