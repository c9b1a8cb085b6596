// Command benchmark is the repository's one end-to-end and per-layer
// benchmark: four named workloads driven through the public client
// against a real avstored, every reply checked, and a traced pass that
// splits each request between client, server, store stages and wire
// codec. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == keepAwakeArg {
		spin(os.Args[2])
	}
	name := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "measured time of one pass (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; default both")
	smoke := flag.Bool("smoke", false, "tiny fixtures and passes: checks the harness, not the store")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and fail if a metric moves by more than its bound")
	out := flag.String("out", "", "directory for results, traces, daemon logs and temporary stores (default benchmark/out)")
	flag.Parse()

	stopSpinners := keepAwake()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		stopSpinners()
		os.Exit(130)
	}()

	code, err := realMain(*name, *seed, *seconds, *trace, *smoke, *selfcheck, *out)
	cleanupAll()
	stopSpinners()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func realMain(name string, seed int64, seconds float64, trace int, smoke, selfcheck bool, out string) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	decl, err := readDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	if seconds == 0 {
		seconds = float64(decl.RunSeconds)
	}
	cfg := config{out: out, smoke: smoke}
	if cfg.out == "" {
		cfg.out = filepath.Join(root, "benchmark", "out")
	}
	if cfg.out, err = filepath.Abs(cfg.out); err != nil {
		return 1, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "bin"), 0o755); err != nil {
		return 1, err
	}
	// stores a killed run left behind, and the last command's daemon logs
	_ = os.RemoveAll(filepath.Join(cfg.out, "work"))
	if logs, err := filepath.Glob(filepath.Join(cfg.out, "*.avstored.log")); err == nil {
		for _, l := range logs {
			_ = os.Remove(l)
		}
	}
	if cfg.avstored, err = buildDaemon(root, filepath.Join(cfg.out, "bin")); err != nil {
		return 1, err
	}

	selected := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
		selected = []*workload{w}
	}
	if smoke {
		seconds = 0.6
		var small []*workload
		for _, w := range selected {
			small = append(small, w.smoke())
		}
		selected = small
	}
	if selfcheck {
		return runSelfcheck(cfg, decl, selected, seed, seconds)
	}

	report := &report{Fingerprint: fingerprint(cfg.out), Seed: seed, Seconds: seconds, Smoke: smoke}
	var last *runResult
	failed := 0
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if (trace == 0 && traced) || (trace == 1 && !traced) {
				continue
			}
			res, err := runOnce(cfg, w, seed, seconds, traced)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			res.print(os.Stdout)
			report.Runs = append(report.Runs, res)
			failed += res.Failed
			last = res
		}
	}
	if err := report.write(filepath.Join(cfg.out, "result.json")); err != nil {
		return 1, err
	}
	if len(report.Runs) == 1 {
		// one workload, one pass: the last line is the machine's
		line, err := json.Marshal(last.summary())
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		return 1, fmt.Errorf("%d failed ops or checks", failed)
	}
	return 0, nil
}

// findRoot walks up from the working directory to the repository: the
// directory that holds cmd/avstored.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "avstored", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/avstored above the working directory: run inside the repository")
		}
		dir = parent
	}
}

// buildDaemon builds cmd/avstored once per command; the build is outside
// every clock.
func buildDaemon(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "avstored")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/avstored")
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/avstored: %v\n%s", err, outp)
	}
	return bin, nil
}

// declaration is BENCHMARK.json.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: run_seconds missing", path)
	}
	return &d, nil
}

// smoke shrinks a workload to a few versions, for the harness tests.
func (w *workload) smoke() *workload {
	s := *w
	if s.versions > 8 {
		s.versions = 8
	}
	if s.poolLen > 16 {
		s.poolLen = 16
	}
	if s.listLen > 256 {
		s.listLen = 256
	}
	return &s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
