package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The sandbox this benchmark runs in is a small VM whose hypervisor takes
// its vCPUs away: /proc/stat counts the time as stolen, 0-3 % of CPU time
// in a quiet run and 40 % in a bad one, and throughput halves with it. So
// a pass is cut into slices, the stolen share of each is read, and the
// pass goes on (up to maxStretch times its length) until it holds enough
// quiet slices. Only the quietest slices are measured. The choice never
// looks at a latency or at a count of ops.
const (
	sliceLen   = 500 * time.Millisecond
	quietSteal = 0.05 // a slice with less of its CPU time stolen is quiet
	maxStretch = 2.0  // an untraced pass may last this many times --seconds
)

// machine is what one reading of the counters says: CPU time the
// hypervisor stole, CPU time in all, and CPU time of the daemon, in ticks.
type machine struct{ steal, total, daemon int64 }

// sliceStat is one slice of a pass.
type sliceStat struct {
	steal  float64 // share of the slice's CPU time that was stolen
	daemon int64   // daemon CPU ticks
}

// replayer replays an op list: the clients take ops in list order, closed
// loop (the next op when the last one returned, the list cycled) or open
// loop (each op at its due time). exec performs one op and returns the
// array bytes it moved.
type replayer struct {
	ops      []op
	window   time.Duration // time to measure
	stretch  float64       // the pass may last stretch*window to find quiet slices; 0 or 1: exactly window
	openLoop bool
	clients  int
	exec     func(client int, o *op, traceID string) (int64, error)
	read     func() (machine, error) // nil: nothing is read and every slice counts as quiet
	// after, when set, is called once by the client that ran op number
	// afterOp of the pass, when that op has returned
	afterOp int
	after   func()

	// a traced pass gives every request an ID and fetches the server's
	// trace of it one op later
	tl    *traceLog
	fetch func(client int, sp *span)
}

// replayed is what a replay measured.
type replayed struct {
	samples []sample      // every op, in no order
	slices  []sliceStat   // every whole slice of the pass
	chosen  map[int]bool  // the slices that are measured
	elapsed time.Duration // of the whole pass
	err     error         // reading the machine failed
}

func (r *replayer) run() *replayed {
	need := int(r.window / sliceLen)
	most := need // slices the pass may last
	if r.stretch > 1 {
		most = int(float64(need) * r.stretch)
	}
	out := &replayed{}
	var stop atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([][]sample, r.clients)
	start := time.Now()

	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		defer stop.Store(true)
		var last machine
		if r.read != nil {
			if last, out.err = r.read(); out.err != nil {
				return
			}
		}
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		quiet := 0
		for range tick.C {
			st := sliceStat{}
			if r.read != nil {
				now, err := r.read()
				if err != nil {
					out.err = err
					return
				}
				if dt := now.total - last.total; dt > 0 {
					st.steal = float64(now.steal-last.steal) / float64(dt)
				}
				st.daemon = now.daemon - last.daemon
				last = now
			}
			out.slices = append(out.slices, st)
			if st.steal < quietSteal {
				quiet++
			}
			if quiet >= need || len(out.slices) >= most {
				return
			}
		}
	}()

	for ci := 0; ci < r.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var pending *span // traced: the previous op, whose server trace is now published
			for !stop.Load() {
				k := int(next.Add(1) - 1)
				if r.openLoop && k >= len(r.ops) {
					break
				}
				o := &r.ops[k%len(r.ops)]
				var due time.Time
				if r.openLoop {
					due = start.Add(o.due)
					time.Sleep(time.Until(due))
					if stop.Load() {
						break
					}
				}
				id, sp := "", (*span)(nil)
				if r.tl != nil {
					sp = r.tl.begin(o.kind)
					id = sp.request
				}
				t0 := time.Now()
				n, err := r.exec(ci, o, id)
				t1 := time.Now()
				s := sample{kind: o.kind, ns: t1.Sub(t0).Nanoseconds(), doneNs: t1.Sub(start).Nanoseconds(), failed: err != nil}
				if r.openLoop {
					s.ns, s.lateNs = t1.Sub(due).Nanoseconds(), t0.Sub(due).Nanoseconds()
				}
				per[ci] = append(per[ci], s)
				if r.after != nil && k == r.afterOp {
					r.after()
				}
				if r.tl != nil {
					sp.finish(t0, t1, n)
					r.fetch(ci, pending)
					pending = sp
				}
			}
			if r.tl != nil {
				r.fetch(ci, pending)
			}
		}(ci)
	}
	<-monitorDone
	wg.Wait()
	out.elapsed = time.Since(start)
	for ci := range per {
		out.samples = append(out.samples, per[ci]...)
	}
	out.chosen = quietest(out.slices, need)
	return out
}

// quietest picks the n slices with the smallest stolen share (earlier
// first among equals); all of them when there are no more than n.
func quietest(slices []sliceStat, n int) map[int]bool {
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slices[order[a]].steal < slices[order[b]].steal })
	if len(order) > n {
		order = order[:n]
	}
	chosen := make(map[int]bool, len(order))
	for _, i := range order {
		chosen[i] = true
	}
	return chosen
}

// measured returns the samples that finished inside a chosen slice.
func (r *replayed) measured() []sample {
	var out []sample
	for _, s := range r.samples {
		if r.chosen[int(time.Duration(s.doneNs)/sliceLen)] {
			out = append(out, s)
		}
	}
	return out
}

// measuredTime is the length of the chosen slices together.
func (r *replayed) measuredTime() time.Duration { return time.Duration(len(r.chosen)) * sliceLen }

// daemonTicks is the daemon's CPU time over the chosen slices.
func (r *replayed) daemonTicks() int64 {
	var t int64
	for i := range r.chosen {
		t += r.slices[i].daemon
	}
	return t
}

// stolenShare is the mean stolen share of the chosen slices, and of all.
func (r *replayed) stolenShare() (chosen, all float64) {
	for i, s := range r.slices {
		all += s.steal
		if r.chosen[i] {
			chosen += s.steal
		}
	}
	return ratio(chosen, float64(len(r.chosen))), ratio(all, float64(len(r.slices)))
}

func count(samples []sample) (attempted, failed int) {
	for _, s := range samples {
		if s.failed {
			failed++
		}
	}
	return len(samples), failed
}

// pass is one replay against the daemon of an env.
type pass struct {
	*replayed
	benchCPU time.Duration // the benchmark's own CPU time over the pass
	versions int           // versions acked during the pass
	stored   float64       // bytes on disk per byte of user data, after op sizeAt
}

// run replays ops against the daemon for the given time. An untraced pass
// (tl nil) may stretch to find quiet slices; a traced one lasts exactly
// its time, carries a trace ID on every request and fetches every server
// trace.
func (e *env) run(ops []op, seconds float64, tl *traceLog) (*pass, error) {
	versions0 := len(e.refs) + len(e.refsB)
	cpu0 := selfCPU()
	r := replayer{
		ops: ops, window: time.Duration(seconds * float64(time.Second)), stretch: maxStretch,
		openLoop: e.w.rate > 0, clients: numClients, tl: tl,
		exec: func(ci int, o *op, traceID string) (int64, error) {
			c := e.clients[ci]
			if traceID != "" {
				c = c.WithTrace(traceID)
			}
			n, err := e.do(c, o)
			if err != nil {
				e.failf("%s: %v", opNames[o.kind], err)
			}
			return n, err
		},
		fetch: func(ci int, sp *span) { tl.fetch(e.clients[ci], sp) },
		read: func() (machine, error) {
			m, err := readProcStat()
			if err != nil {
				return m, err
			}
			m.daemon, err = e.d.cpuTicks()
			return m, err
		},
	}
	if tl != nil {
		r.stretch = 1
	}
	p := &pass{}
	var storedErr error
	r.afterOp, r.after = e.w.sizeAt, func() { p.stored, storedErr = e.storedRatio() }
	if r.afterOp < 0 {
		r.after()
	}
	p.replayed = r.run()
	if p.err != nil {
		return nil, p.err
	}
	if p.stored == 0 && storedErr == nil { // the pass ended before op sizeAt
		p.stored, storedErr = e.storedRatio()
	}
	if storedErr != nil {
		return nil, storedErr
	}
	p.benchCPU = selfCPU() - cpu0
	p.versions = len(e.refs) + len(e.refsB) - versions0
	return p, nil
}

// readProcStat reads the machine's stolen and total CPU ticks off the
// first line of /proc/stat.
func readProcStat() (machine, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machine{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return machine{}, fmt.Errorf("unexpected /proc/stat: %q", line)
	}
	var m machine
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		var v int64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return machine{}, fmt.Errorf("unexpected /proc/stat: %q", line)
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m, nil
}

// selfCPU is the benchmark process's own user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
