package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems/all"
)

// The cold-pipeline inputs: every system at coldSeeds program seeds
// drawn from the workload seed, scale 1, crash family.
const (
	coldSeeds = 10
	coldScale = 1
)

// coldInput is one (system, seed) pair with its reference: the CLI
// output the legacy full-replay pipeline renders for it.
type coldInput struct {
	System  string   `json:"system"`
	Seed    int64    `json:"seed"`
	Want    string   `json:"want"`
	Virtual sim.Time `json:"virtual"`
	Bad     string   `json:"bad,omitempty"` // why every op on this input fails
}

// coldInputs derives the run's inputs from the workload seed, in op order.
func coldInputs(seed int64) []coldInput {
	rng := rand.New(rand.NewSource(seed))
	var inputs []coldInput
	for _, name := range systems() {
		for _, s := range programSeeds(rng, coldSeeds) {
			inputs = append(inputs, coldInput{System: name, Seed: s})
		}
	}
	order := rng.Perm(len(inputs))
	out := make([]coldInput, len(inputs))
	for i, k := range order {
		out[i] = inputs[k]
	}
	return out
}

// coldReference runs the in-process pipeline with snapshots off — every
// injection run replays from t=0 — and renders its CLI output.
func coldReference(in coldInput, known map[string]bool) (coldInput, error) {
	r, err := all.ByName(in.System)
	if err != nil {
		return in, err
	}
	res := core.Run(r, core.Options{Config: campaign.Config{Workers: 1}, Seed: in.Seed, Scale: coldScale, NoSnapshots: true})
	in.Want = normalize(render(res, in.Seed, coldScale, res.Analysis.Census(), r.Program().Census()))
	in.Virtual = res.Timing.VirtualTest
	if n := res.Summary.HarnessErrors; n > 0 {
		in.Bad = fmt.Sprintf("%d harness errors", n)
	}
	if u := unknownBugs(known, res.Summary.WitnessedBugs); len(u) > 0 {
		in.Bad += fmt.Sprintf(" witnessed bugs unknown to the registry: %v", u)
	}
	return in, nil
}

// coldRefs is the set-up helper process: it computes every input's
// reference and prints them as JSON. Set-up runs out of process so the
// benchmark process stays small: a child's peak RSS, as the kernel
// reports it, also covers the parent's peak at the moment of exec.
func coldRefs(args []string) int {
	fs := flag.NewFlagSet("refs", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := knownBugs()
	inputs := coldInputs(*seed)
	for i := range inputs {
		var err error
		if inputs[i], err = coldReference(inputs[i], known); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(inputs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// runCold measures fresh crashtuner processes, one per op.
func runCold(cfg config) (*outcome, error) {
	if cfg.crashtuner == "" {
		return nil, fmt.Errorf("cold-pipeline needs -crashtuner")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var inputs []coldInput
	out.setup, err = timeSetup(func() error {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(self, "refs", "-seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("cold-pipeline references: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		inputs = nil
		return json.Unmarshal(stdout.Bytes(), &inputs)
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out.lat, out.window = closedLoop(cfg, len(inputs), func(i int) func() {
		in := inputs[nth(i, len(inputs), cfg.trace)]
		var t *tracer
		if tr != nil && traced(i) {
			t = tr
		}
		root := t.begin(-1, i, "op")
		args := []string{"-system", in.System, "-seed", strconv.FormatInt(in.Seed, 10), "-scale", strconv.Itoa(coldScale), "-workers", "1"}
		cmd := exec.Command(cfg.crashtuner, args...)
		if t != nil {
			cmd = exec.Command(self, append([]string{"child"}, args...)...)
		}
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		run := t.begin(root, i, "proc.exec")
		err := cmd.Run()
		t.end(run)
		t.end(root)
		out.virt = append(out.virt, in.Virtual)
		return func() {
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > out.rssKB {
				out.rssKB = ru.Maxrss
			}
			if err != nil {
				out.fail("op %d %s seed %d: %v: %s", i, in.System, in.Seed, err, strings.TrimSpace(stderr.String()))
				return
			}
			got := stdout.String()
			if t != nil {
				var cs childSpans
				got, cs, err = splitChild(got)
				if err != nil {
					out.fail("op %d %s seed %d: %v", i, in.System, in.Seed, err)
					return
				}
				t.adopt(cs.Spans, cs.Vals, run, i)
			}
			if in.Bad != "" {
				out.fail("op %d %s seed %d: %s", i, in.System, in.Seed, in.Bad)
			} else if d := firstDiff(in.Want, normalize(got)); d != "" {
				out.fail("op %d %s seed %d: output differs from the full-replay reference: %s", i, in.System, in.Seed, d)
			}
		}
	})
	if tr != nil {
		if err := finishTraced(cfg, tr, out); err != nil {
			return nil, err
		}
		coverage := out.layers.extra["trace.coverage"]
		largest := out.layers.largestLayer()
		out.layers.checks = append(out.layers.checks,
			fmt.Sprintf("check: layer self times cover %.1f%% of op wall time (want >= 90%%): %s", 100*coverage, passFail(coverage >= 0.9)),
			fmt.Sprintf("check: largest self time is layer %q (want \"ir\"): %s", largest, passFail(largest == "ir")))
	}
	return out, nil
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// firstDiff describes the first differing line of want and got, or
// returns "" when they are equal.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "outputs differ"
}

// childSpans is what a traced child op hands back on its last line.
type childSpans struct {
	Spans []span               `json:"spans"`
	Vals  map[string][]float64 `json:"vals"`
}

// splitChild separates a traced child's CLI output from its span line.
func splitChild(out string) (string, childSpans, error) {
	var cs childSpans
	out = strings.TrimRight(out, "\n")
	k := strings.LastIndexByte(out, '\n')
	if k < 0 {
		return "", cs, fmt.Errorf("traced child printed no span line")
	}
	if err := json.Unmarshal([]byte(out[k+1:]), &cs); err != nil {
		return "", cs, fmt.Errorf("traced child span line: %w", err)
	}
	return out[:k+1], cs, nil
}

// coldChild is the traced form of one cold op: a fresh process that
// makes the crashtuner CLI's calls one by one under spans, prints the
// CLI's output, then its spans as one JSON line.
func coldChild(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	system := fs.String("system", "", "system under test")
	seed := fs.Int64("seed", 11, "program seed")
	scale := fs.Int("scale", 1, "workload scale")
	fs.Int("workers", 1, "campaign workers (the pipeline runs sequentially)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tr := newTracer()
	root := tr.begin(-1, 0, "proc.main")
	r, err := all.ByName(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	p := pipeline{tr: tr, parent: root}
	res, matcher := p.analysis(r, *seed, *scale)
	meta, total := p.census(r, res)
	p.profile(r, res, *seed, *scale)
	p.test(r, res, matcher, *seed, *scale)
	text := render(res, *seed, *scale, meta, total)
	fmt.Print(text)
	tr.end(root)
	line, err := json.Marshal(childSpans{Spans: tr.spans, Vals: tr.vals})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}
