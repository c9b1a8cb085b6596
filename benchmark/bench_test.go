package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestFailedOpIsTheSlowest(t *testing.T) {
	samples := []sample{{kind: opSelect, ns: 5e6}, {kind: opSelect, ns: 1, failed: true}, {kind: opSelect, ns: 7e6}, {kind: opRegion, ns: 9e9}}
	ms := sortedMs(samples, opSelect)
	if len(ms) != 3 || ms[2] != failedMs || percentile(ms, 50) != 7 || percentile(ms, 100) != failedMs {
		t.Fatalf("sortedMs = %v", ms)
	}
}

// The open loop times every op from when it was due, not from when a free
// client got to it, and says how late the generator ran.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service, gap = 30 * time.Millisecond, 10 * time.Millisecond
	ops := make([]op, 4)
	for i := range ops {
		ops[i] = op{kind: opSelect, due: time.Duration(i) * gap}
	}
	r := replayer{ops: ops, window: sliceLen, openLoop: true, clients: 1,
		exec: func(int, *op, string) (int64, error) { time.Sleep(service); return 1, nil }}
	res := r.run()
	if len(res.samples) != len(ops) {
		t.Fatalf("%d samples", len(res.samples))
	}
	for k, s := range res.samples {
		wantLate := time.Duration(k) * (service - gap)
		if late := time.Duration(s.lateNs); late < wantLate || late > wantLate+service {
			t.Errorf("op %d sent %v late, want about %v", k, late, wantLate)
		}
		if lat := time.Duration(s.ns); lat < wantLate+service {
			t.Errorf("op %d latency %v, want at least %v from its due time", k, lat, wantLate+service)
		}
	}
}

func TestClosedLoopCyclesTheListUntilTheWindowEnds(t *testing.T) {
	r := replayer{ops: make([]op, 3), window: 2 * sliceLen, clients: 2,
		exec: func(int, *op, string) (int64, error) { time.Sleep(time.Millisecond); return 0, nil }}
	res := r.run()
	if len(res.samples) < 100 || res.elapsed < r.window || res.elapsed > 2*r.window || len(res.chosen) != 2 {
		t.Fatalf("%d samples in %v, %d slices measured", len(res.samples), res.elapsed, len(res.chosen))
	}
	if n := len(res.measured()); n < len(res.samples)-4 {
		t.Fatalf("%d of %d samples measured with no slice left out", n, len(res.samples))
	}
}

// A pass goes on past its window while the hypervisor steals CPU time, and
// measures the quiet slices only.
func TestPassStretchesOverStolenSlices(t *testing.T) {
	reads := 0
	r := replayer{ops: make([]op, 1), window: 2 * sliceLen, stretch: 3, clients: 1,
		exec: func(int, *op, string) (int64, error) { time.Sleep(time.Millisecond); return 0, nil },
		read: func() (machine, error) { // slices 0 and 2 lose 40% of their CPU time
			reads++
			m := machine{total: int64(reads) * 100, daemon: int64(reads) * 10}
			for i := 1; i < reads; i++ {
				if i == 1 || i == 3 {
					m.steal += 40
				}
			}
			return m, nil
		}}
	res := r.run()
	if len(res.slices) != 4 || !res.chosen[1] || !res.chosen[3] || len(res.chosen) != 2 {
		t.Fatalf("slices %+v, measured %v; want the two quiet ones of four", res.slices, res.chosen)
	}
	if res.daemonTicks() != 20 {
		t.Errorf("daemon ticks over the measured slices = %d, want 20", res.daemonTicks())
	}
	for _, s := range res.measured() {
		if i := int(time.Duration(s.doneNs) / sliceLen); i != 1 && i != 3 {
			t.Fatalf("a sample of slice %d was measured", i)
		}
	}
}

func TestGenerationIsSeeded(t *testing.T) {
	for _, w := range workloads {
		w := w.smoke()
		a, b, c := generate(w, 1, 2), generate(w, 1, 2), generate(w, 2, 2)
		if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.fixture.crc, b.fixture.crc) || !reflect.DeepEqual(a.fixture.boxCRC, b.fixture.boxCRC) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if a.pool != nil && !reflect.DeepEqual(a.pool.crc, b.pool.crc) {
			t.Errorf("%s: the same seed gave different insert payloads", w.name)
		}
		if reflect.DeepEqual(a.fixture.crc, c.fixture.crc) {
			t.Errorf("%s: another seed gave the same versions", w.name)
		}
		if w.name != "ingest-durable" && reflect.DeepEqual(a.ops, c.ops) { // ingest's op list has no random part
			t.Errorf("%s: another seed gave the same ops", w.name)
		}
	}
}

// The store materializes a version only when no delta is smaller, so a
// keyframe must differ from its predecessor by nearly all 32 bits.
func TestKeyframesDoNotDelta(t *testing.T) {
	s := genSeries(rand.New(rand.NewSource(1)), 512, 18, 16, nil)
	ck, err := pinChunker(s.side)
	if err != nil {
		t.Fatal(err)
	}
	origin := ck.origins()[0]
	deltaLen := func(i int) int {
		d, err := ck.extract(s.planes[i], origin)
		if err != nil {
			t.Fatal(err)
		}
		base, err := ck.extract(s.planes[i-1], origin)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := pinDeltaEncode(d, base)
		if err != nil {
			t.Fatal(err)
		}
		return len(blob)
	}
	if within := deltaLen(1); within > chunkBytes/8 {
		t.Errorf("delta inside an epoch is %d bytes of a %d byte chunk", within, chunkBytes)
	}
	if across := deltaLen(16); across < chunkBytes {
		t.Errorf("delta across a keyframe is %d bytes, smaller than the %d byte chunk: the store would not materialize", across, chunkBytes)
	}
}

func TestSharesSumToOne(t *testing.T) {
	var s shareSum
	// serial stages inside the server, server inside the client
	cs, ss := s.add(request{clientNs: 100, serverNs: 80, stages: map[string]int64{"read": 30, "delta": 20}})
	if cs != 20 || ss != 30 {
		t.Fatalf("self times %v, %v; want 20, 30", cs, ss)
	}
	// parallel chunk workers: stage time exceeds the server's wall time
	s.add(request{clientNs: 100, serverNs: 60, stages: map[string]int64{"read": 90, "delta": 30}})
	client, server, stages := s.shares()
	sum := client + server
	for _, v := range stages {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	if want := (20.0 + 40) / 200; client != want {
		t.Errorf("client share %v, want %v", client, want)
	}
	if want := 30.0 / 200; server != want {
		t.Errorf("server share %v, want %v (an overlapped request has no server self time)", server, want)
	}
	if want := (30 + 90*0.5) / 200; math.Abs(stages["read"]-want) > 1e-12 {
		t.Errorf("read share %v, want %v", stages["read"], want)
	}
	if s.overlapNs != 60 {
		t.Errorf("overlap %v ns, want 60", s.overlapNs)
	}
	if got := unaccountedShare(0.3, 0.15, 0.25); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("unaccounted share %v, want 0.2", got)
	}
}

// BENCHMARK.json and the program must name the same metrics, units and
// workloads, or the driver refuses the result.
func TestDeclarationMatchesProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range decl.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("end_to_end declares %v, the program reports %v", e2e, endToEndUnits)
	}
	if !reflect.DeepEqual(layers, perLayerUnits) {
		t.Errorf("per_layer declares %v, the program reports %v", layers, perLayerUnits)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
}

// One smoke pass of every workload, untraced and traced, against a real
// daemon; afterwards no child and no store may be left.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns avstored")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{out: t.TempDir(), smoke: true}
	if err := os.MkdirAll(filepath.Join(cfg.out, "bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if cfg.avstored, err = buildDaemon(root, filepath.Join(cfg.out, "bin")); err != nil {
		t.Fatal(err)
	}
	defer cleanupAll()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOnce(cfg, w.smoke(), 1, 0.5, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := endToEndUnits
			if traced {
				want = perLayerUnits
				m := res.Metrics
				sum := m["client.self_share"].Value + m["server.self_share"].Value + m["core.stage_share.other"].Value
				for _, st := range append(append([]string(nil), readStages...), writeStages...) {
					sum += m["core.stage_share."+st].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: request shares sum to %v", w.name, sum)
				}
				if _, err := os.Stat(filepath.Join(cfg.out, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
	live.Lock()
	daemons, dirs := len(live.daemons), len(live.dirs)
	live.Unlock()
	if daemons != 0 || dirs != 0 {
		t.Errorf("%d daemons and %d stores left behind", daemons, dirs)
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.out, "work", "*")); len(left) != 0 {
		t.Errorf("stores left on disk: %v", left)
	}
}
