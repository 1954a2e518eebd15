package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"globuscompute/internal/sdk"
)

// workload is one traffic mix. Counts scale with -seconds so that a run at
// the default 20 s is the size the README's magnitudes were taken at.
type workload struct {
	name string
	why  string
	// durable runs gc-webservice with -data-dir.
	durable bool
	// openRate > 0 makes the workload open loop at that many tasks/s, timed
	// from each task's due time. Otherwise it is closed loop over window
	// outstanding futures and stops after tasksPerSecond*seconds tasks (or
	// at -seconds, whichever comes first).
	openRate       int
	window         int
	tasksPerSecond int
	// statusEvery > 0 makes the submitter read the status of the 128 most
	// recent task IDs in every statusEvery-th slot.
	statusEvery int
	// restart SIGKILLs gc-webservice after the load, restarts it on the same
	// data dir and verifies every acknowledged task.
	restart bool
	// payloadMix draws identity tasks with 8 KiB, unique 200 kB and hot
	// 200 kB strings instead of add tasks.
	payloadMix bool
	// minFreeDisk is the free space the workload needs under -workdir.
	minFreeDisk uint64
}

var workloads = []workload{
	{
		name:    "steady-small",
		why:     "open loop at 1000 add tasks/s, about a third of durable saturation: latency is service time plus batching windows, with status reads beside the writes",
		durable: true, openRate: 1000, statusEvery: 50,
	},
	{
		name:    "sat-small",
		why:     "closed loop, window 256, small add tasks on the durable path, then SIGKILL and replay: WAL group commits do most of the work",
		durable: true, window: 256, tasksPerSecond: 2500, restart: true,
	},
	{
		name:   "sat-mem",
		why:    "sat-small without -data-dir: durable is bypassed, so HTTP/JSON, broker, codec, agent, engine and SDK own the time; a WAL change must not move it",
		window: 256, tasksPerSecond: 5000,
	},
	{
		name:    "payload-mix",
		why:     "closed loop, window 16, identity tasks of 8 KiB inline, unique 200 kB and 8 hot 200 kB strings: bytes dominate, through spill, objectstore and dedup",
		durable: true, window: 16, tasksPerSecond: 300, payloadMix: true,
		minFreeDisk: 2 << 30,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// taskCount is how many tasks a run of the given length offers.
func (w workload) taskCount(seconds int) int {
	if w.openRate > 0 {
		return w.openRate * seconds
	}
	return w.tasksPerSecond * seconds
}

type taskKind uint8

const (
	kindAdd taskKind = iota
	kindIdentity
)

// Payload classes of payload-mix; add tasks are classSmall.
const (
	classSmall  uint8 = iota // add(a, b)
	classInline              // 8 KiB string, below the 64 KiB spill threshold
	classUnique              // 200 kB string seen once
	classHot                 // 200 kB string from a set of 8
)

const (
	inlineBytes = 8 << 10
	blobBytes   = 200_000
	hotSetSize  = 8
)

// task is one generated input and the output it must produce.
type task struct {
	kind  taskKind
	class uint8
	a, b  int64  // add
	s     string // identity
}

var (
	addFn      = &sdk.PythonFunction{Entrypoint: "add"}
	identityFn = &sdk.PythonFunction{Entrypoint: "identity"}
)

// submit hands the task to the executor under test.
func (t task) submit(ex *sdk.Executor) (*sdk.Future, error) {
	if t.kind == kindAdd {
		return ex.Submit(addFn, t.a, t.b)
	}
	return ex.Submit(identityFn, t.s)
}

// userBytes is the size of the task's arguments as the user wrote them.
func (t task) userBytes() int {
	if t.kind == kindAdd {
		return len(strconv.FormatInt(t.a, 10)) + len(strconv.FormatInt(t.b, 10))
	}
	return len(t.s)
}

// check reports whether out is the task's correct output: the sum for add,
// the same bytes (as a JSON string) for identity.
func (t task) check(out []byte) bool {
	if t.kind == kindAdd {
		got, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		return err == nil && got == float64(t.a+t.b)
	}
	// Generated strings hold only characters JSON leaves unescaped, so the
	// encoded output is the input between two quotes.
	n := len(out)
	return n == len(t.s)+2 && out[0] == '"' && out[n-1] == '"' && string(out[1:n-1]) == t.s
}

// generator derives task i from (seed, i) alone, so the same seed gives the
// same task list however the run is paced, and nothing but the generated
// inputs reaches the program under test.
type generator struct {
	w    workload
	seed uint64
	hot  [hotSetSize]string
}

func newGenerator(w workload, seed int64) *generator {
	g := &generator{w: w, seed: uint64(seed)}
	if w.payloadMix {
		for i := range g.hot {
			g.hot[i] = randomString(blobBytes, mix(g.seed, uint64(i), 0x686f74))
		}
	}
	return g
}

func (g *generator) task(i int) task {
	h := mix(g.seed, uint64(i), 0x7461736b)
	if !g.w.payloadMix {
		return task{kind: kindAdd, class: classSmall, a: int64(h % 1_000_000), b: int64((h >> 32) % 1_000_000)}
	}
	switch h % 8 {
	case 0:
		return task{kind: kindIdentity, class: classUnique, s: randomString(blobBytes, h)}
	case 1:
		return task{kind: kindIdentity, class: classHot, s: g.hot[(h>>8)%hotSetSize]}
	default:
		return task{kind: kindIdentity, class: classInline, s: randomString(inlineBytes, h)}
	}
}

// digest hashes the first n tasks; equal digests mean byte-identical lists.
func (g *generator) digest(n int) string {
	sum := sha256.New()
	var buf [17]byte
	for i := 0; i < n; i++ {
		t := g.task(i)
		buf[0] = byte(t.kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(t.a))
		binary.LittleEndian.PutUint64(buf[9:], uint64(t.b))
		sum.Write(buf[:])
		sum.Write([]byte(t.s))
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

// mix is splitmix64 over three words.
func mix(a, b, c uint64) uint64 {
	x := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9 ^ c<<32
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

// randomString returns n characters of the 64-symbol alphabet drawn from a
// xorshift stream seeded by state; ten characters per 64-bit draw keeps the
// generator's own CPU small beside the client work being measured.
func randomString(n int, state uint64) string {
	if state == 0 {
		state = 0x9e3779b97f4a7c15
	}
	buf := make([]byte, n)
	for i := 0; i < n; {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		x := state
		for k := 0; k < 10 && i < n; k++ {
			buf[i] = alphabet[x&63]
			x >>= 6
			i++
		}
	}
	return string(buf)
}
