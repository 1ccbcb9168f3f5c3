package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestVerifyCatchesTamperedExpectation(t *testing.T) {
	sh := &shape{registers: 2, mapKeys: 3}
	bk := newBook(sh)
	bk.regSum[0][0], bk.regSum[1][0] = 5, 7 // register 0: 12
	bk.lastPut[0][0] = 100                  // key 0: only conn 0 wrote
	bk.lastPut[0][1], bk.lastPut[1][1] = 200, 300
	regs := []readout{{12, true}, {0, true}}
	keys := []readout{{100, true}, {300, true}, {0, false}}
	if bad := verify(bk, regs, keys); bad != 0 {
		t.Fatalf("consistent read-back: %d mismatches", bad)
	}
	tamper := []func(*book){
		func(b *book) { b.regSum[1][0]++ },      // an add the server never acked
		func(b *book) { b.regSum[0][1] = -1 },   // a register that should have moved
		func(b *book) { b.lastPut[0][0] = 101 }, // a put value nobody read
		func(b *book) { b.lastPut[1][1] = 301 }, // key 1 holds neither last put
		func(b *book) { b.lastPut[0][2] = 9 },   // a put the server lost
	}
	for i, f := range tamper {
		bk2 := newBook(sh)
		for c := 0; c < conns; c++ {
			copy(bk2.regSum[c], bk.regSum[c])
			copy(bk2.lastPut[c], bk.lastPut[c])
		}
		f(bk2)
		if bad := verify(bk2, regs, keys); bad != 1 {
			t.Errorf("tamper %d: %d mismatches, want 1", i, bad)
		}
	}
	if bad := verify(bk, []readout{{12, false}, {0, true}}, keys); bad != 1 {
		t.Errorf("register read without the found flag: %d mismatches, want 1", bad)
	}
}

func TestPow2Quantile(t *testing.T) {
	hist := make([]int64, 32)
	if got := pow2Quantile(hist, 0.5); got != 0 {
		t.Fatalf("empty histogram: %v", got)
	}
	hist[10] = 10 // ten values in [512, 1024)
	if got := pow2Quantile(hist, 0.5); got != 768 {
		t.Errorf("p50 of one bucket = %v, want 768", got)
	}
	// 90 values in [2,4), 10 in [1024, 2048): p50 lies in bucket 2, p99 in
	// bucket 11 at rank 9 of its 10.
	hist = make([]int64, 32)
	hist[2], hist[11] = 90, 10
	if got, want := pow2Quantile(hist, 0.5), 2+2*50.0/90; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got, want := pow2Quantile(hist, 0.99), 1024+1024*9.0/10; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	// Every quantile stays inside the bucket of the exact quantile.
	vals := []int64{3, 5, 9, 17, 100, 700, 701, 5000, 70000, 1 << 20}
	hist = make([]int64, 32)
	for _, v := range vals {
		hist[bits.Len64(uint64(v))]++
	}
	for i, v := range vals {
		q := float64(i+1) / float64(len(vals))
		got := pow2Quantile(hist, q)
		b := bits.Len64(uint64(v))
		lo, hi := math.Ldexp(1, b-1), math.Ldexp(1, b)
		if got < lo || got > hi {
			t.Errorf("q=%.1f: %v outside the bucket [%v, %v] of the exact value %d", q, got, lo, hi, v)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: child
		{start: 20, end: 40, parent: 0},    // 2: overlaps child 1
		{start: 90, end: 120, parent: 0},   // 3: runs past the root
		{start: 12, end: 18, parent: 1},    // 4: grandchild under 1
		{start: 200, end: 250, parent: -1}, // 5: second root, no children
	}
	got := selfTimes(spans)
	// Root: children cover [10,40) and [90,100): 40 of its 100.
	want := []int64{60, 14, 20, 30, 6, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
	b := newSpanBuf(time.Now())
	b.begin(spApply, 7)
	b.leaf(spClone, 7, b.now(), b.now())
	b.end()
	if b.spans[1].parent != 0 || b.spans[0].parent != -1 || len(b.open) != 0 {
		t.Errorf("begin/leaf/end nesting: %+v", b.spans)
	}
}

func TestLoadPlanFillsEverySessionOnEveryShard(t *testing.T) {
	sh, _ := shapeByName("write-large")
	nm := newNames(&sh)
	plan := loadPlan(&sh, nm, 3)
	seen := map[[2]int]bool{}
	loaded := map[string]int{}
	for _, g := range plan[1:] {
		for _, o := range g.ops {
			seen[[2]int{g.sess, int(o.shard)}] = true
			loaded[o.obj+"/"+o.key]++
			if shardFor(o.obj) != o.shard {
				t.Fatalf("%s addressed to shard %d, placed on %d", o.obj, o.shard, shardFor(o.obj))
			}
		}
	}
	if len(seen) != sh.sessions*shards {
		t.Errorf("load touches %d (session, shard) pairs, want %d", len(seen), sh.sessions*shards)
	}
	if len(loaded) != sh.registers+sh.mapKeys {
		t.Errorf("load writes %d distinct objects and keys, want %d", len(loaded), sh.registers+sh.mapKeys)
	}
	for k, n := range loaded {
		if n != 1 {
			t.Fatalf("%s loaded %d times", k, n)
		}
	}
	if again := loadPlan(&sh, nm, 3); len(again) != len(plan) || again[5].ops[3] != plan[5].ops[3] {
		t.Error("the load plan is not a function of the seed")
	}
}

// benchmarkJSON reads the metric tables of the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestShortWorkloads runs a short shape of every workload, untraced and
// traced, against a freshly built kexserved, and checks that each run is
// correct and emits exactly the metrics BENCHMARK.json names, with its
// units.
func TestShortWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns kexserved")
	}
	e2e, layer := benchmarkJSON(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "kexserved")
	build := exec.Command("go", "build", "-o", bin, "./cmd/kexserved")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kexserved: %v\n%s", err, out)
	}
	for _, full := range shapes {
		sh := full
		sh.setups = 2
		if sh.registers > 0 {
			sh.registers, sh.mapKeys, sh.sessions = shards*16, shards*16, 8
		} else {
			sh.mapKeys = 64
		}
		for _, trace := range []bool{false, true} {
			cfg := &config{shape: sh, seed: 5, seconds: 0.6, trace: trace, server: bin, work: filepath.Join(dir, "work")}
			var out bytes.Buffer
			res, err := runWorkload(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", sh.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sh.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", sh.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", sh.name, trace, name, got, unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", sh.name, name, got.Value)
				}
				if !strings.Contains(out.String(), "metric "+name) {
					t.Errorf("%s trace=%v: %s not printed", sh.name, trace, name)
				}
			}
		}
	}
}
