package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// spanName names a layer boundary the benchmark times from its own files.
type spanName uint8

const (
	spClientPipeline spanName = iota // one 8-op pipeline, first GoObj to last Wait
	spClientFlush                    // client.Flush of the queued pipeline
	spClientWait                     // the first Pending.Wait after the flush
	spReplayPipeline                 // one replayed pipeline
	spEncode                         // wire.ObjBatch.Encode of the pipeline
	spDecode                         // wire.ParseRequestFrame of the pipeline
	spApply                          // resilient.Shared.ApplyCtx of one op
	spClone                          // durable.ShardState.Clone inside ApplyCtx
	spStep                           // durable.StepOp inside the op closure
	spAppend                         // durable.Log.Append of one record
	spWaitDurable                    // durable.Log.WaitDurable once per pipeline
	spSnapshot                       // durable.Log.WriteSnapshot
	spMapGet                         // Peek + object Map.Get, mapGetBatch gets
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.pipeline", "client.flush", "client.wait",
	"replay.pipeline", "wire.encode", "wire.decode",
	"resilient.apply", "durable.clone", "durable.step", "durable.append",
	"durable.wait_durable", "durable.snapshot", "object.map_get",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed interval. parent indexes the enclosing span in the
// same buffer (-1 for a root); spans of one operation share op.
type span struct {
	start, end int64 // ns since the trace epoch
	op         uint64
	parent     int32
	name       spanName
}

// spanBuf is one thread's span record, kept in memory until the run
// ends. Only its owner appends to it.
type spanBuf struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newSpanBuf(epoch time.Time) *spanBuf { return &spanBuf{epoch: epoch} }

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

func (b *spanBuf) top() int32 {
	if len(b.open) == 0 {
		return -1
	}
	return b.open[len(b.open)-1]
}

// begin opens a span as a child of the innermost open one.
func (b *spanBuf) begin(name spanName, op uint64) {
	b.spans = append(b.spans, span{start: b.now(), op: op, parent: b.top(), name: name})
	b.open = append(b.open, int32(len(b.spans)-1))
}

// end closes the innermost open span.
func (b *spanBuf) end() {
	i := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	b.spans[i].end = b.now()
}

// leaf records a finished span under the innermost open one.
func (b *spanBuf) leaf(name spanName, op uint64, start, end int64) {
	b.spans = append(b.spans, span{start: start, end: end, op: op, parent: b.top(), name: name})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once; a child's part outside the parent does not count).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start - covered(s.start, s.end, children[int32(i)])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// quantile is the nearest-rank q-quantile of vs (sorted in place); 0 for
// no values.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[max(0, min(i, len(vs)-1))]
}

// pow2Quantile is the q-quantile of a power-of-two histogram, where
// bucket i counts values v with bit-length i (v in [2^(i-1), 2^i), bucket
// 0 holds v < 1). The quantile's rank is placed linearly inside its
// bucket. 0 for an empty histogram.
func pow2Quantile(hist []int64, q float64) float64 {
	var total int64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i, c := range hist {
		if c == 0 || float64(seen+c) < rank {
			seen += c
			continue
		}
		lo, hi := 0.0, 1.0
		if i > 0 {
			lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
		}
		return lo + (hi-lo)*(rank-float64(seen))/float64(c)
	}
	return math.Ldexp(1, len(hist)-1)
}

// writeSpans writes every span as CSV: buffer, index, name, start and
// end in ns since the trace epoch, parent index (-1 for roots) and op id.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "buf,index,name,start_ns,end_ns,parent,op")
	for bi, b := range bufs {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", bi, i, s.name, s.start, s.end, s.parent, s.op)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
