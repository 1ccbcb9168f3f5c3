package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"kexclusion/internal/object"
	"kexclusion/internal/wire"
)

// Fixed traffic shape and server defaults. The benchmark starts kexserved
// with its stock flags, so these mirror its defaults; they are not knobs.
const (
	shards        = 8     // kexserved -shards default
	serverN       = 64    // kexserved -n default
	serverK       = 8     // kexserved -k default
	snapshotEvery = 1024  // kexserved -snapshot-every default
	dedupWindow   = 1024  // kexserved -dedup-window default
	conns         = 2     // client connections, one goroutine each
	depth         = 8     // ops per pipeline: one 0xC1 frame, one flush
	zipfS         = 1.1   // the skew kexbench -objects uses
	loadPerShard  = 4     // members per shard in one atomic load group
	warmupOps     = 4096  // ops before measuring: at least one snapshot cycle
	minSamples    = 40000 // latency samples a full-length run must reach
)

// mix is a workload's op mix.
type mix int

const (
	mixPutZipf    mix = iota // map puts, zipfian over the map keys
	mixAddUniform            // register adds, uniform over the registers
	mixGetUniform            // half map gets, half register gets, uniform
)

// shape fixes one workload: its state, its op mix and how many times a
// run sets it up. Every workload has the same traffic shape (two
// connections, a closed loop of 8-op pipelines); only the state and the
// mix change. BENCHMARK.json and README.md give each one's reason.
type shape struct {
	name string
	mix  mix
	// mapKeys map keys are striped over one map per shard: key i lives in
	// the map on shard i mod shards.
	mapKeys int
	// registers registers are striped over the shards the same way.
	registers int
	// sessions op-ID sessions are split between the two connections; a
	// connection switches to its next session at every pipeline.
	sessions int
	// setups is how many times a run spawns and loads a server; setup_s
	// is their median and the last one is measured.
	setups int
}

// writes reports whether the mix mutates state (and so ends with the
// restart read-back check).
func (sh *shape) writes() bool { return sh.mix != mixGetUniform }

var shapes = []shape{
	{name: "write-small", mix: mixPutZipf, mapKeys: 1000, sessions: 2, setups: 15},
	{name: "write-large", mix: mixAddUniform, mapKeys: shards * 2048, registers: shards * 2048, sessions: 1024, setups: 3},
	{name: "read-large", mix: mixGetUniform, mapKeys: shards * 2048, registers: shards * 2048, sessions: 1024, setups: 3},
}

func shapeByName(name string) (shape, error) {
	for _, sh := range shapes {
		if sh.name == name {
			return sh, nil
		}
	}
	return shape{}, fmt.Errorf("unknown workload %q (have write-small, write-large, read-large)", name)
}

// shardFor is client.ShardFor's placement (FNV-1a mod shards). Objects
// are named so that it lands each on the shard the benchmark addresses,
// which keeps atomic groups (they fill a zero Shard from ShardFor) and
// explicit placement in agreement.
func shardFor(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32() % shards
}

// names holds every object and key name of a shape, built once so the
// generators format nothing on the hot path.
type names struct {
	mapObj   [shards]string
	keys     []string // map key i, in the map on shard i mod shards
	regObj   []string // register j
	regShard []uint32
}

func newNames(sh *shape) *names {
	nm := &names{keys: make([]string, sh.mapKeys)}
	for s := uint32(0); s < shards; s++ {
		for n := 0; ; n++ {
			name := fmt.Sprintf("m%d.%d", s, n)
			if shardFor(name) == s {
				nm.mapObj[s] = name
				break
			}
		}
	}
	for i := range nm.keys {
		nm.keys[i] = fmt.Sprintf("k%05d", i)
	}
	// Register j lives on shard j mod shards: take the first names the
	// placement hash puts on each shard.
	perShard := make([][]string, shards)
	need := (sh.registers + shards - 1) / shards
	for n, full := 0, 0; sh.registers > 0 && full < shards; n++ {
		name := fmt.Sprintf("r%06d", n)
		if s := shardFor(name); len(perShard[s]) < need {
			perShard[s] = append(perShard[s], name)
			if len(perShard[s]) == need {
				full++
			}
		}
	}
	for j := 0; j < sh.registers; j++ {
		nm.regObj = append(nm.regObj, perShard[j%shards][j/shards])
		nm.regShard = append(nm.regShard, uint32(j%shards))
	}
	return nm
}

// op is one generated operation. idx is the map key or register index.
type op struct {
	kind  wire.Kind
	shard uint32
	obj   string
	key   string
	arg   int64
	idx   int
}

// gen is one connection's op stream, a pure function of (seed, conn).
type gen struct {
	sh    *shape
	nm    *names
	r     *rand.Rand
	zipf  *rand.Zipf
	conn  int
	count int64
}

func newGen(sh *shape, nm *names, seed int64, conn int) *gen {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7_919 + 17))
	g := &gen{sh: sh, nm: nm, r: r, conn: conn}
	if sh.mix == mixPutZipf {
		g.zipf = rand.NewZipf(r, zipfS, 1, uint64(sh.mapKeys-1))
	}
	return g
}

func (g *gen) next() op {
	g.count++
	switch g.sh.mix {
	case mixPutZipf:
		i := int(g.zipf.Uint64())
		return g.mapOp(wire.KindMapPut, i, putValue(g.conn, g.count))
	case mixAddUniform:
		j := g.r.Intn(g.sh.registers)
		return op{kind: wire.KindRegAdd, shard: g.nm.regShard[j], obj: g.nm.regObj[j], arg: 1 + g.r.Int63n(7), idx: j}
	default:
		if g.r.Intn(2) == 0 {
			return g.mapOp(wire.KindMapGet, g.r.Intn(g.sh.mapKeys), 0)
		}
		j := g.r.Intn(g.sh.registers)
		return op{kind: wire.KindRegGet, shard: g.nm.regShard[j], obj: g.nm.regObj[j], idx: j}
	}
}

func (g *gen) mapOp(kind wire.Kind, i int, arg int64) op {
	s := uint32(i % shards)
	return op{kind: kind, shard: s, obj: g.nm.mapObj[s], key: g.nm.keys[i], arg: arg, idx: i}
}

// mapKeyPicker draws map key indexes with the workload's key
// distribution (zipfian for write-small, uniform otherwise).
func mapKeyPicker(sh *shape, r *rand.Rand) func() int {
	if sh.mix == mixPutZipf {
		z := rand.NewZipf(r, zipfS, 1, uint64(sh.mapKeys-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return r.Intn(sh.mapKeys) }
}

// putValue is the value of a connection's count-th measured put: unique
// across connections and never zero, so the read-back can tell whose put
// a key holds.
func putValue(conn int, count int64) int64 { return int64(conn+1)<<40 | count }

// loadValue is the value the load phase stores at map key i.
func loadValue(seed int64, i int) int64 {
	return int64(mix64(uint64(seed)<<24^uint64(i))>>2) | 1
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sessionIDs derives a shape's op-ID sessions from the seed: distinct
// and nonzero.
func sessionIDs(n int, seed int64) []uint64 {
	out := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for i := uint64(0); len(out) < n; i++ {
		s := mix64(uint64(seed)*0x100000001b3 ^ i)
		if s != 0 && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sessionOwner is the connection that uses session index i: the first
// half of the sessions belong to connection 0, the rest to connection 1.
func sessionOwner(i, sessions int) int { return i * conns / sessions }

// loadGroup is one atomic load group, issued by the owner of its session.
type loadGroup struct {
	sess int
	ops  []op
}

// loadPlan is the load phase: one group creating the maps (and nothing
// else), then groups of up to loadPerShard members per shard drawn from
// each shard's seeded shuffle of register creates and map puts. Group g
// runs under session g mod sessions, so with the large shapes every
// session writes every shard and each shard's dedup window fills.
func loadPlan(sh *shape, nm *names, seed int64) []loadGroup {
	first := loadGroup{sess: 0}
	for s := uint32(0); s < shards; s++ {
		first.ops = append(first.ops, op{kind: wire.KindCreate, shard: s, obj: nm.mapObj[s], arg: int64(object.TypeMap)})
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	per := make([][]op, shards)
	for j := 0; j < sh.registers; j++ {
		s := nm.regShard[j]
		per[s] = append(per[s], op{kind: wire.KindCreate, shard: s, obj: nm.regObj[j], arg: int64(object.TypeRegister), idx: j})
	}
	for i := 0; i < sh.mapKeys; i++ {
		s := uint32(i % shards)
		per[s] = append(per[s], op{kind: wire.KindMapPut, shard: s, obj: nm.mapObj[s], key: nm.keys[i], arg: loadValue(seed, i), idx: i})
	}
	for s := range per {
		r.Shuffle(len(per[s]), func(a, b int) { per[s][a], per[s][b] = per[s][b], per[s][a] })
	}
	plan := []loadGroup{first}
	for g := 0; ; g++ {
		var grp loadGroup
		grp.sess = g % sh.sessions
		for s := range per {
			n := min(loadPerShard, len(per[s]))
			grp.ops = append(grp.ops, per[s][:n]...)
			per[s] = per[s][n:]
		}
		if len(grp.ops) == 0 {
			return plan
		}
		plan = append(plan, grp)
	}
}
