package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kexclusion/internal/core"
	"kexclusion/internal/durable"
	"kexclusion/internal/obs"
	"kexclusion/internal/resilient"
	"kexclusion/internal/wire"
)

// The traced replay runs a workload's op stream in process through the
// same layers kexserved stacks per shard, with the server's state sizes
// and cadence, and times each call from here:
//
//   - resilient.NewSharedConfig over core "fastpath", n=64, k=8, with a
//     timed wrapper around durable.ShardState.Clone;
//   - durable.StepOp inside the op closure, as the server's closure does;
//   - one durable.Log.Append per op, one WaitDurable per 8-op pipeline
//     (fsync always), and WriteSnapshot in the background every 1,024
//     applied ops;
//   - wire.ObjBatch.Encode and wire.ParseRequestFrame of each pipeline.
//
// Two goroutines replay the two connections' streams. Each is locked to
// its OS thread, so a clone or step running inside ApplyCtx (the caller's
// own op or one it helps) is charged to the thread that ran it.

const (
	mapGetBatch = 16 // gets per object.map_get span, to amortize the clock
	// replayPipelines caps each replay goroutine's pipelines, which bounds
	// the spans kept in memory when the stream is cheap (read-large).
	replayPipelines = 10000
)

// threadBufs maps a replay thread to its span buffer.
type threadBufs struct {
	tids [conns]atomic.Int64
	bufs [conns]*spanBuf
}

func (t *threadBufs) current() *spanBuf {
	tid := int64(syscall.Gettid())
	for i := range t.tids {
		if t.tids[i].Load() == tid {
			return t.bufs[i]
		}
	}
	return nil
}

// replayResult is what the replay measured.
type replayResult struct {
	bufs          []*spanBuf // per-thread spans, then snapshot and map-get spans
	appends       int64
	syncs         uint64
	snapBytes     []float64
	walBytesPerOp float64
}

// loadStates applies the load plan straight to per-shard states, the
// same ops under the same sessions the server loads. It returns the
// states and the next free op sequence number.
func loadStates(plan []loadGroup, sessions []uint64) ([shards]durable.ShardState, uint64) {
	var st [shards]durable.ShardState
	seq := uint64(0)
	for _, g := range plan {
		for _, o := range g.ops {
			seq++
			durable.StepOp(&st[o.shard], dedupWindow, sessions[g.sess], seq, durableOp(o))
		}
	}
	return st, seq + 1
}

// durableOp maps the mutations the benchmark issues onto durable ops,
// as the server's own mapping does.
func durableOp(o op) durable.Op {
	var kind durable.OpKind
	switch o.kind {
	case wire.KindCreate:
		kind = durable.OpCreate
	case wire.KindMapPut:
		kind = durable.OpMapPut
	case wire.KindRegAdd:
		kind = durable.OpRegAdd
	}
	return durable.Op{Kind: kind, Obj: o.obj, Key: o.key, Arg: o.arg}
}

func runReplay(cfg *config, nm *names, plan []loadGroup, sessions []uint64, d time.Duration) (*replayResult, error) {
	sh := &cfg.shape
	dir := filepath.Join(cfg.work, "replay")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	states, firstSeq := loadStates(plan, sessions)
	wal, _, err := durable.Open(durable.Options{Dir: dir, Policy: durable.SyncAlways, DedupWindow: dedupWindow})
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	ctor, err := core.ByName("fastpath")
	if err != nil {
		return nil, err
	}

	epoch := time.Now()
	var th threadBufs
	for i := range th.bufs {
		th.bufs[i] = newSpanBuf(epoch)
	}
	clone := func(s durable.ShardState) durable.ShardState {
		b := th.current()
		if b == nil {
			return s.Clone()
		}
		t := b.now()
		c := s.Clone()
		b.leaf(spClone, b.spans[b.top()].op, t, b.now())
		return c
	}
	var objs [shards]*resilient.Shared[durable.ShardState]
	for s := range objs {
		m := obs.New()
		objs[s] = resilient.NewSharedConfig(serverN, serverK, states[s], clone,
			resilient.Config{Excl: ctor.New(serverN, serverK, core.WithMetrics(m)), Metrics: m})
	}
	peekAll := func() map[uint32]durable.ShardState {
		out := make(map[uint32]durable.ShardState, shards)
		for s := range objs {
			out[uint32(s)] = objs[s].Peek()
		}
		return out
	}

	// Snapshots run in the background, never two at once, every
	// snapshotEvery applied ops: the server's cadence.
	res := &replayResult{}
	snapBuf := newSpanBuf(epoch)
	var (
		sinceSnap   atomic.Int64
		snapRunning atomic.Bool
		snapWg      sync.WaitGroup
		errOnce     sync.Once
		firstErr    error
		stop        atomic.Bool
		appends     atomic.Int64
		records     []durable.Record // worker 0's first records, for the WAL size
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	maybeSnapshot := func(n int64) {
		if sinceSnap.Add(n) < snapshotEvery || !snapRunning.CompareAndSwap(false, true) {
			return
		}
		sinceSnap.Add(-snapshotEvery)
		snapWg.Add(1)
		go func() {
			defer snapWg.Done()
			defer snapRunning.Store(false)
			t := snapBuf.now()
			err := wal.WriteSnapshot(peekAll)
			snapBuf.leaf(spSnapshot, 0, t, snapBuf.now())
			if err != nil {
				fail(err)
				return
			}
			if n, err := newestSnapshotSize(dir); err == nil {
				res.snapBytes = append(res.snapBytes, float64(n))
			}
		}()
	}

	syncs0 := wal.Syncs()
	deadline := time.Now().Add(d)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < conns; w++ {
		ready.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			th.tids[w].Store(int64(syscall.Gettid()))
			ready.Done()
			<-start
			b := th.bufs[w]
			g := newGen(sh, nm, cfg.seed, w)
			var sess []uint64
			for si := range sessions {
				if sessionOwner(si, len(sessions)) == w {
					sess = append(sess, sessions[si])
				}
			}
			seq := firstSeq
			reqs := make([]wire.Request, depth)
			for pipe := 0; pipe < replayPipelines && !stop.Load() && time.Now().Before(deadline); pipe++ {
				opID := uint64(w)<<48 | uint64(g.count+1)
				b.begin(spReplayPipeline, opID)
				session := sess[pipe%len(sess)]
				for i := range reqs {
					o := g.next()
					reqs[i] = wire.Request{ID: uint64(i + 1), Kind: o.kind, Shard: o.shard, Arg: o.arg, Session: session, Obj: o.obj, Key: o.key}
					if !o.kind.IsRead() {
						reqs[i].Seq = seq
						seq++
					}
				}
				t := b.now()
				payload, err := wire.ObjBatch{Reqs: reqs}.Encode()
				b.leaf(spEncode, opID, t, b.now())
				if err != nil {
					fail(err)
					return
				}
				t = b.now()
				frame, err := wire.ParseRequestFrame(payload)
				b.leaf(spDecode, opID, t, b.now())
				if err != nil {
					fail(err)
					return
				}
				var maxLSN uint64
				writes := int64(0)
				for i, req := range frame.Reqs {
					if req.Kind.IsRead() {
						continue // read-large: the layers below are bypassed
					}
					id := opID + uint64(i)
					dop := durableOp(op{kind: req.Kind, obj: req.Obj, key: req.Key, arg: req.Arg})
					b.begin(spApply, id)
					v, err := objs[req.Shard].ApplyCtx(context.Background(), w, func(s durable.ShardState) (durable.ShardState, any) {
						tb := th.current()
						var t int64
						if tb != nil {
							t = tb.now()
						}
						out := durable.StepOp(&s, dedupWindow, req.Session, req.Seq, dop)
						if tb != nil {
							tb.leaf(spStep, id, t, tb.now())
						}
						return s, out
					})
					b.end()
					if err != nil {
						fail(err)
						return
					}
					out := v.(durable.Outcome)
					if !out.Applied || !out.OK {
						fail(fmt.Errorf("replayed %s on %s was not applied", req.Kind, req.Obj))
						return
					}
					rec := durable.Record{Session: req.Session, Seq: req.Seq, Shard: req.Shard, Kind: dop.Kind,
						Obj: req.Obj, Key: req.Key, Arg: req.Arg, Val: out.Val, Ver: out.Ver, Epoch: out.Epoch, OK: out.OK}
					t = b.now()
					lsn, err := wal.Append(rec)
					b.leaf(spAppend, id, t, b.now())
					if err != nil {
						fail(err)
						return
					}
					if w == 0 && len(records) < snapshotEvery {
						records = append(records, rec)
					}
					maxLSN = max(maxLSN, lsn)
					writes++
				}
				if writes > 0 {
					t = b.now()
					err := wal.WaitDurable(maxLSN)
					b.leaf(spWaitDurable, opID, t, b.now())
					if err != nil {
						fail(err)
						return
					}
					appends.Add(writes)
					maybeSnapshot(writes)
				}
				b.end()
			}
		}(w)
	}
	ready.Wait()
	close(start)
	done.Wait()
	snapWg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.appends = appends.Load()
	res.syncs = wal.Syncs() - syncs0

	getBuf, err := mapGetPass(sh, nm, cfg.seed, &objs, epoch)
	if err != nil {
		return nil, err
	}
	res.bufs = []*spanBuf{th.bufs[0], th.bufs[1], snapBuf, getBuf}
	if len(records) > 0 {
		if res.walBytesPerOp, err = walBytesPerOp(filepath.Join(cfg.work, "replay-wal"), records); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// mapGetPass times Peek + Map.Get on the replay's final state, drawing
// keys with the workload's map-key distribution.
func mapGetPass(sh *shape, nm *names, seed int64, objs *[shards]*resilient.Shared[durable.ShardState], epoch time.Time) (*spanBuf, error) {
	b := newSpanBuf(epoch)
	pick := mapKeyPicker(sh, rand.New(rand.NewSource(seed^0x9e7)))
	keys := make([]int, mapGetBatch)
	for n := 0; n < 4096; n++ {
		for k := range keys {
			keys[k] = pick()
		}
		missing := 0
		t := b.now()
		for _, i := range keys {
			s := i % shards
			o := objs[s].Peek().Objs[nm.mapObj[s]]
			if _, ok := o.M.Get(nm.keys[i]); !ok {
				missing++
			}
		}
		b.leaf(spMapGet, uint64(n), t, b.now())
		if missing > 0 {
			return nil, errors.New("replay: a loaded map key is missing")
		}
	}
	return b, nil
}

// walBytesPerOp appends recs to a fresh log and reports the bytes the
// segment grew by per record.
func walBytesPerOp(dir string, recs []durable.Record) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	l, _, err := durable.Open(durable.Options{Dir: dir, Policy: durable.SyncNever})
	if err != nil {
		return 0, err
	}
	before, err := dirBytes(dir, "wal-*.seg")
	if err != nil {
		l.Close()
		return 0, err
	}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			l.Close()
			return 0, err
		}
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	after, err := dirBytes(dir, "wal-*.seg")
	return float64(after-before) / float64(len(recs)), err
}

func newestSnapshotSize(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(names) == 0 {
		return 0, errors.New("no snapshot written")
	}
	newest := names[len(names)-1] // zero-padded cover LSN: lexical order is age
	fi, err := os.Stat(newest)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func dirBytes(dir, pattern string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
