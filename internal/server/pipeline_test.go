package server_test

import (
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"kexclusion/internal/server"
	"kexclusion/internal/server/client"
	"kexclusion/internal/wire"
)

// TestPipelineBatchEndToEnd drives a pipelined burst over a real
// server: one flush, one durability wait server-side, responses in
// issue order.
func TestPipelineBatchEndToEnd(t *testing.T) {
	_, addr := startServer(t, server.Config{N: 2, K: 2, Shards: 2, DataDir: t.TempDir()})
	c := dial(t, addr)
	defer c.Close()
	const depth = 16
	var ps []*client.Pending
	for i := 1; i <= depth; i++ {
		p, err := c.Go(wire.KindAdd, 0, 1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for i, p := range ps {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if resp.Value != int64(i+1) {
			t.Fatalf("op %d: running total %d, want %d (pipeline reordered?)", i, resp.Value, i+1)
		}
	}
	if v, err := c.Get(0); err != nil || v != depth {
		t.Fatalf("Get = %d, %v; want %d", v, err, depth)
	}
}

// TestPipelineHardCloseMidBatchExactlyOnce kills a session right after
// flushing a pipelined batch of mutations: whatever subset the server
// applied, re-issuing the same op IDs over a fresh session must
// converge on exactly-once application, and the dead session's
// identity must come back to the pool.
func TestPipelineHardCloseMidBatchExactlyOnce(t *testing.T) {
	_, addr := startServer(t, server.Config{
		N: 1, K: 1, Shards: 1,
		DataDir:      t.TempDir(),
		AdmitTimeout: 3 * time.Second,
		IdleTimeout:  30 * time.Second,
	})
	const session, ops = 0xfeed, 8

	c1 := dial(t, addr)
	c1.SetSession(session)
	for i := 1; i <= ops; i++ {
		if _, err := c1.Go(wire.KindAdd, 0, 1, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	c1.HardClose() // batch is in flight; acks (if any) are discarded

	// N=1: this dial parks until the server notices the dead socket and
	// reclaims the identity — the reclaim assertion and the healing
	// session in one step.
	c2, err := client.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("identity not reclaimed after hard close: %v", err)
	}
	defer c2.Close()
	c2.SetSession(session)
	dupes := 0
	for i := 1; i <= ops; i++ {
		res, err := c2.AddOp(0, 1, uint64(i))
		if err != nil {
			t.Fatalf("re-issue seq %d: %v", i, err)
		}
		if res.WasDuplicate {
			dupes++
		}
		if res.Value != int64(i) {
			t.Fatalf("seq %d: value %d, want %d", i, res.Value, i)
		}
	}
	if v, err := c2.Get(0); err != nil || v != ops {
		t.Fatalf("final value %d, %v; want %d (exactly-once violated)", v, err, ops)
	}
	t.Logf("hard-closed batch: %d/%d ops had landed before the close", dupes, ops)
}

// TestWatchdogReclaimsIdlePipelinedSession checks the idle watchdog
// still spans the read-many loop: a session that pipelined a batch and
// then went silent is torn down, freeing its identity.
func TestWatchdogReclaimsIdlePipelinedSession(t *testing.T) {
	_, addr := startServer(t, server.Config{
		N: 1, K: 1, Shards: 1,
		AdmitTimeout: 3 * time.Second,
		IdleTimeout:  200 * time.Millisecond,
	})
	c1 := dial(t, addr)
	defer c1.Close()
	var ps []*client.Pending
	for i := 1; i <= 4; i++ {
		p, err := c1.Go(wire.KindAdd, 0, 1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// c1 now sits silent between batches — exactly where the watchdog
	// must fire. The only identity frees, admitting c2.
	c2, err := client.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("watchdog did not reclaim the idle pipelined session: %v", err)
	}
	c2.Close()
}

// TestDrainLandsMidBatch starts a graceful shutdown while a pipelined
// batch is inside the apply phase: every admitted op of the batch must
// complete and be acknowledged — drain refuses future work, it never
// abandons admitted work.
func TestDrainLandsMidBatch(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, err := server.New(server.Config{
		N: 2, K: 2, Shards: 1,
		ApplyGate: func(uint32, wire.Kind) {
			once.Do(func() {
				close(entered)
				<-release
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	c := dial(t, addr.String())
	defer c.Close()
	var ps []*client.Pending
	for i := 1; i <= 3; i++ {
		p, err := c.Go(wire.KindAdd, 0, 1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	<-entered // first op of the batch is inside the wait-free core

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment to land mid-batch, then let the op go.
	time.Sleep(50 * time.Millisecond)
	close(release)

	for i, p := range ps {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("admitted op %d abandoned by drain: %v", i, err)
		}
		if resp.Value != int64(i+1) {
			t.Fatalf("op %d: value %d, want %d", i, resp.Value, i+1)
		}
	}
	// The NEXT cycle sees the drain: a typed refusal or a closed socket.
	if _, err := c.Add(0, 1); err == nil {
		t.Fatal("op after drain succeeded")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestRetiredRequestFramesRefused speaks the retired request shapes
// against the server after a valid handshake: the 37-byte kx03 plain
// request and the kx04 0xB4 batch, each an add of 1 to shard 0. The
// server applies nothing, hangs up, and reclaims the identity (N=1
// proves it: the next client is admitted).
func TestRetiredRequestFramesRefused(t *testing.T) {
	srv, addr := startServer(t, server.Config{N: 1, K: 1, Shards: 1})
	plain := binary.BigEndian.AppendUint64(nil, 1) // id
	plain = append(plain, byte(wire.KindAdd))
	plain = binary.BigEndian.AppendUint32(plain, 0)      // shard
	plain = binary.BigEndian.AppendUint64(plain, 1)      // arg
	plain = binary.BigEndian.AppendUint64(plain, 0x5eed) // session
	plain = binary.BigEndian.AppendUint64(plain, 1)      // seq
	batch := append([]byte{0xB4, 0, 0, 0, 1}, plain...)

	for i, payload := range [][]byte{plain, batch} {
		conn := rawDial(t, addr)
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if b, err := wire.ReadFrame(conn); err == nil {
			t.Fatalf("shape %d: server answered a retired request frame: %x", i, b)
		}
		conn.Close()
		awaitStats(t, srv, "retired-frame reclaim", func(st wire.Stats) bool {
			return st.ActiveSessions == 0 && st.Reclaimed >= int64(i+1)
		})
	}
	c := dial(t, addr)
	defer c.Close()
	if v, err := c.Get(0); err != nil || v != 0 {
		t.Fatalf("Get = %d, %v; want 0 (a retired frame changed state)", v, err)
	}
	if st := srv.Stats(); st.AppliedDupes != 0 {
		t.Fatalf("applied_dupes = %d after refused frames", st.AppliedDupes)
	}
}
