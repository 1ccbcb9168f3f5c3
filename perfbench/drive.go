package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// book is what the server must hold: every acknowledged write, per
// connection. Each connection writes only its own row.
type book struct {
	regSum  [conns][]int64 // sum of acked adds per register
	lastPut [conns][]int64 // value of the last acked put per map key, 0 = none
}

func newBook(sh *shape) *book {
	bk := &book{}
	for c := range bk.regSum {
		bk.regSum[c] = make([]int64, sh.registers)
		bk.lastPut[c] = make([]int64, sh.mapKeys)
	}
	return bk
}

// readout is one value read back from the server.
type readout struct {
	v     int64
	found bool
}

// verify counts read-back values the book rules out. A register must
// equal the sum of its acked adds. A map key must hold the value of the
// last acked put of one of the connections (no put: absent).
func verify(bk *book, regs, keys []readout) int {
	bad := 0
	for j, r := range regs {
		if want := bk.regSum[0][j] + bk.regSum[1][j]; !r.found || r.v != want {
			bad++
		}
	}
	for i, r := range keys {
		a, b := bk.lastPut[0][i], bk.lastPut[1][i]
		switch {
		case a == 0 && b == 0:
			if r.found {
				bad++
			}
		case !r.found || r.v == 0 || (r.v != a && r.v != b):
			bad++
		}
	}
	return bad
}

// conn is one client connection and the closed loop that drives it.
type conn struct {
	id       int
	c        *client.Client
	g        *gen
	seed     int64
	sess     []uint64 // the sessions this connection cycles, one per pipeline
	nextSess int
	bk       *book

	attempted, failed, ok int64
	win                   *windows // non-nil in a measured phase
	spans                 *spanBuf // non-nil in a traced phase
	err                   error    // transport failure; the loop stops
}

// windows splits a measured phase into equal time windows. An op lands
// in the window its reply arrived in; replies after the last window are
// not measured.
type windows struct {
	start time.Time
	width time.Duration
	lat   [][]int64 // ns per op, per window
	ok    []int64   // OK ops per window
}

func newWindows(start time.Time, width time.Duration, n int) *windows {
	return &windows{start: start, width: width, lat: make([][]int64, n), ok: make([]int64, n)}
}

func (w *windows) add(issued, done time.Time, good bool) {
	i := int(done.Sub(w.start) / w.width)
	if i >= len(w.ok) {
		return
	}
	w.lat[i] = append(w.lat[i], int64(done.Sub(issued)))
	if good {
		w.ok[i]++
	}
}

// settle books one reply and reports whether the op succeeded. A failed
// op is a non-OK status, a transport error, a duplicate answer or a wrong
// read.
func (cn *conn) settle(o op, resp wire.Response, err error) bool {
	cn.attempted++
	if err != nil {
		cn.failed++
		var we *wire.Error
		if !errors.As(err, &we) && cn.err == nil {
			cn.err = err
		}
		return false
	}
	found := resp.Flags&wire.FlagFound != 0
	good := found && resp.Flags&wire.FlagDuplicate == 0
	switch o.kind {
	case wire.KindMapPut:
		if good {
			cn.bk.lastPut[cn.id][o.idx] = o.arg
		}
	case wire.KindRegAdd:
		if good {
			cn.bk.regSum[cn.id][o.idx] += o.arg
		}
	case wire.KindMapGet:
		good = good && resp.Value == loadValue(cn.seed, o.idx)
	case wire.KindRegGet:
		good = good && resp.Value == 0 // created by the load, never added to
	}
	if !good {
		cn.failed++
		return false
	}
	cn.ok++
	return true
}

// pipeline issues one depth-op pipeline as a single flush and waits for
// every reply. An op's latency runs from its GoObj to its Wait returning.
func (cn *conn) pipeline() {
	if len(cn.sess) > 1 {
		cn.c.SetSession(cn.sess[cn.nextSess])
		cn.nextSess = (cn.nextSess + 1) % len(cn.sess)
	}
	var (
		ops    [depth]op
		pend   [depth]*client.Pending
		issued [depth]time.Time
	)
	tr := cn.spans
	opID := uint64(cn.id)<<48 | uint64(cn.g.count+1)
	if tr != nil {
		tr.begin(spClientPipeline, opID)
	}
	n := 0
	for ; n < depth; n++ {
		o := cn.g.next()
		var seq uint64
		if !o.kind.IsRead() {
			seq = cn.c.NextSeq()
		}
		issued[n] = time.Now()
		p, err := cn.c.GoObj(o.kind, o.obj, o.key, o.shard, o.arg, 0, seq)
		if err != nil {
			cn.settle(o, wire.Response{}, err)
			break
		}
		ops[n], pend[n] = o, p
	}
	flushed := int64(0)
	if tr != nil {
		t := tr.now()
		// A failed flush poisons the client, so every Wait below fails.
		_ = cn.c.Flush()
		flushed = tr.now()
		tr.leaf(spClientFlush, opID, t, flushed)
	}
	for i := 0; i < n; i++ {
		resp, err := pend[i].Wait()
		done := time.Now()
		if tr != nil && i == 0 {
			tr.leaf(spClientWait, opID, flushed, tr.now())
		}
		good := cn.settle(ops[i], resp, err)
		if cn.win != nil {
			cn.win.add(issued[i], done, good)
		}
	}
	if tr != nil {
		tr.end()
	}
}

// drive runs every connection's closed loop, one goroutine each, until
// each has issued pipelines pipelines (0: no limit) and, unless deadline
// is zero, until deadline. It returns the phase's wall time and OK ops.
func drive(cs []*conn, pipelines int, deadline time.Time) (time.Duration, int64) {
	var before int64
	for _, cn := range cs {
		before += cn.ok
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, cn := range cs {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			for n := 0; cn.err == nil && (pipelines == 0 || n < pipelines) && (deadline.IsZero() || time.Now().Before(deadline)); n++ {
				cn.pipeline()
			}
		}(cn)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var after int64
	for _, cn := range cs {
		after += cn.ok
	}
	return elapsed, after - before
}

// loadGroup commits one atomic load group as the group's session.
func (cn *conn) loadGroup(g loadGroup, sessions []uint64) {
	cn.c.SetSession(sessions[g.sess])
	ops := make([]client.AtomicOp, len(g.ops))
	for i, o := range g.ops {
		ops[i] = client.AtomicOp{Kind: o.kind, Obj: o.obj, Key: o.key, Shard: o.shard, Arg: o.arg, Seq: cn.c.NextSeq()}
	}
	res, err := cn.c.Atomic(ops)
	cn.attempted += int64(len(ops))
	if err != nil {
		cn.failed += int64(len(ops))
		var we *wire.Error
		if !errors.As(err, &we) && !errors.Is(err, client.ErrAtomicAborted) && cn.err == nil {
			cn.err = err
		}
		return
	}
	for i, r := range res {
		if !r.Found || r.WasDuplicate {
			cn.failed++
			continue
		}
		cn.ok++
		if o := g.ops[i]; o.kind == wire.KindMapPut {
			cn.bk.lastPut[cn.id][o.idx] = o.arg
		}
	}
}

// stand is one spawned and loaded server with its two connections.
type stand struct {
	srv   *serverProc
	dir   string
	cs    []*conn
	bk    *book
	spawn time.Duration // spawn until the address is known
	load  time.Duration // dial and load
}

// newStand spawns a server on a fresh data directory, dials both
// connections and runs the load plan.
func newStand(cfg *config, nm *names, plan []loadGroup, sessions []uint64, i int) (*stand, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("data-%d", i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := startServer(cfg.server, dir)
	if err != nil {
		return nil, err
	}
	st := &stand{srv: srv, dir: dir, bk: newBook(&cfg.shape), spawn: time.Since(t0)}
	for id := 0; id < conns; id++ {
		c, err := client.DialTimeout(srv.addr, 10*time.Second)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial %s: %w", srv.addr, err)
		}
		c.SetOpTimeout(60 * time.Second)
		cn := &conn{id: id, c: c, g: newGen(&cfg.shape, nm, cfg.seed, id), seed: cfg.seed, bk: st.bk}
		for si := range sessions {
			if sessionOwner(si, len(sessions)) == id {
				cn.sess = append(cn.sess, sessions[si])
			}
		}
		c.SetSession(cn.sess[0])
		st.cs = append(st.cs, cn)
	}
	// The map creates go first, alone; then each connection commits the
	// groups of its own sessions in plan order.
	st.cs[0].loadGroup(plan[0], sessions)
	var wg sync.WaitGroup
	for _, cn := range st.cs {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			for _, g := range plan[1:] {
				if cn.err != nil {
					return
				}
				if sessionOwner(g.sess, len(sessions)) == cn.id {
					cn.loadGroup(g, sessions)
				}
			}
		}(cn)
	}
	wg.Wait()
	st.load = time.Since(t0) - st.spawn
	for _, cn := range st.cs {
		if cn.err != nil {
			st.close()
			return nil, fmt.Errorf("load: %w", cn.err)
		}
	}
	return st, nil
}

// close drops the connections and kills the server; closing twice is
// harmless.
func (st *stand) close() {
	for _, cn := range st.cs {
		cn.c.Close()
	}
	if st.srv != nil {
		st.srv.kill()
		st.srv = nil
	}
}

// stats fetches the server's stats over connection 0 (idle between
// phases, so no pipeline is outstanding).
func (st *stand) stats() (wire.Stats, error) { return st.cs[0].c.Stats() }

// readBack SIGKILLs the server, restarts it on the same data directory
// and reads every register and map key back, returning how many reads
// were attempted and how many failed or disagreed with the book.
func (st *stand) readBack(cfg *config, nm *names) (attempted, failed int64, err error) {
	st.close()
	srv, err := startServer(cfg.server, st.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("restart: %w", err)
	}
	st.srv = srv
	c, err := client.DialTimeout(srv.addr, 10*time.Second)
	if err != nil {
		return 0, 0, fmt.Errorf("dial restarted server: %w", err)
	}
	defer c.Close()
	c.SetOpTimeout(60 * time.Second)

	sh := &cfg.shape
	read := func(n int, issue func(i int) (*client.Pending, error)) ([]readout, error) {
		out := make([]readout, n)
		const readDepth = 64
		for lo := 0; lo < n; lo += readDepth {
			hi := min(lo+readDepth, n)
			pend := make([]*client.Pending, 0, hi-lo)
			for i := lo; i < hi; i++ {
				p, err := issue(i)
				if err != nil {
					return nil, err
				}
				pend = append(pend, p)
			}
			for k, p := range pend {
				resp, err := p.Wait()
				if err != nil {
					return nil, err
				}
				out[lo+k] = readout{v: resp.Value, found: resp.Flags&wire.FlagFound != 0}
			}
		}
		return out, nil
	}
	regs, err := read(sh.registers, func(j int) (*client.Pending, error) {
		return c.GoObj(wire.KindRegGet, nm.regObj[j], "", nm.regShard[j], 0, 0, 0)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("read back registers: %w", err)
	}
	keys, err := read(sh.mapKeys, func(i int) (*client.Pending, error) {
		s := uint32(i % shards)
		return c.GoObj(wire.KindMapGet, nm.mapObj[s], nm.keys[i], s, 0, 0, 0)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("read back map keys: %w", err)
	}
	return int64(len(regs) + len(keys)), int64(verify(st.bk, regs, keys)), nil
}
