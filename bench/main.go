package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's outcome, printed as the last line of its
// standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// setupSpawns is how many extra children only set up, before and again
// after the measuring child, so that setup_s is a median over set-ups
// spread across the run.
const setupSpawns = 10

// readyLine is what a child prints once set up, and roundLine what it
// prints at the end of every complete round (the service: of its load).
// The parent reports the resident set from the ready line to the last
// round line, so that a run covers whole rounds however far the host's
// speed let the last one get.
const (
	readyLine = "ready"
	roundLine = "round"
)

// traceFlag is -trace: it takes a value (0 or 1), so "-trace 0" parses.
type traceFlag bool

func (t *traceFlag) String() string {
	if t != nil && *t {
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

// Main is the ptbench command. A parent run starts one child process
// per workload (re-executing its own binary) and prints the metrics;
// with -child it is that child.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o Options
	var traced traceFlag
	fs.StringVar(&o.Workload, "workload", "", "workload to run: replay, mmu, build or service (default: all four in turn)")
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.Seconds, "seconds", 25, "measured seconds per workload")
	fs.IntVar(&o.Refs, "refs", DefaultRefs, "references per workload trace")
	fs.Var(&traced, "trace", "1 runs the traced per-layer breakdown instead of the end-to-end run")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write the traced run's spans to this JSON file")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile labelled by experiment and cell")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile")
	jsonOut := fs.String("json", "", "also write the result object to this file")
	child := fs.Bool("child", false, "run as the child process of one workload")
	setupOnly := fs.Bool("setup-only", false, "with -child: exit once set up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Trace = bool(traced)
	if err := o.validate(fs.Args()); err != nil {
		fmt.Fprintf(stderr, "ptbench: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *child {
		if err := runChildProcess(ctx, o, *setupOnly, stdout); err != nil {
			fmt.Fprintf(stderr, "ptbench: %s: %v\n", o.Workload, err)
			return 1
		}
		return 0
	}
	res, err := runParent(ctx, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "ptbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ptbench: %v\n", err)
		return 1
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "ptbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func (o Options) validate(rest []string) error {
	switch {
	case len(rest) > 0:
		return fmt.Errorf("unexpected arguments %q", rest)
	case o.Seconds <= 0:
		return fmt.Errorf("-seconds must be positive")
	case o.Refs <= 0:
		return fmt.Errorf("-refs must be positive")
	}
	if _, ok := WorkloadByName(o.Workload); !ok && o.Workload != "" {
		names := make([]string, len(Workloads))
		for i, w := range Workloads {
			names[i] = w.Name
		}
		return fmt.Errorf("unknown workload %q (valid: %s)", o.Workload, strings.Join(names, ", "))
	}
	return nil
}

// runChildProcess is the child's side: set up, print the ready line,
// measure, and print the report as one JSON line.
func runChildProcess(ctx context.Context, o Options, setupOnly bool, stdout io.Writer) error {
	if o.CPUProfile != "" && !setupOnly {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rep, err := runChild(ctx, o, setupOnly, func(line string) { fmt.Fprintln(stdout, line) })
	if err != nil {
		return err
	}
	if o.MemProfile != "" && !setupOnly {
		if err := writeHeapProfile(o.MemProfile); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runParent runs each selected workload in its own child and prints
// every metric as "workload metric value unit".
func runParent(ctx context.Context, o Options, out io.Writer) (Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}
	names := []string{o.Workload}
	if o.Workload == "" {
		names = nil
		for _, w := range Workloads {
			names = append(names, w.Name)
		}
	}
	fmt.Fprintf(out, "# ptbench nproc=%d gomaxprocs=%d go=%s seed=%d refs=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.Seed, o.Refs, o.Seconds, o.Trace)
	res := Result{Metrics: map[string]Metric{}}
	if o.Trace {
		co := o
		co.Workload = names[0]
		_, rep, _, err := spawn(ctx, exe, childArgs(co, false))
		if err != nil {
			return Result{}, fmt.Errorf("traced run: %w", err)
		}
		if err := collect(&res, out, "trace", "", rep, PerLayer()); err != nil {
			return Result{}, err
		}
		return res, nil
	}
	ledger := 0.0
	for _, name := range names {
		co := o
		co.Workload = name
		if len(names) > 1 {
			co.CPUProfile = suffixed(o.CPUProfile, name)
			co.MemProfile = suffixed(o.MemProfile, name)
		}
		rep, err := runWorkload(ctx, exe, co)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		if err := collect(&res, out, name, prefix, rep, EndToEnd); err != nil {
			return Result{}, err
		}
		if w, _ := WorkloadByName(name); w.Experiments != nil {
			ledger += rep.Metrics["wall_s"]
		}
	}
	if len(names) > 1 {
		fmt.Fprintf(out, "# ledger: replay+mmu+build wall_s = %.3f s (one -exp all pass, for information)\n", ledger)
	}
	return res, nil
}

// collect prints a child's metrics and notes and folds them into res.
func collect(res *Result, out io.Writer, label, prefix string, rep Report, specs []Spec) error {
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "# %s: %s\n", label, n)
	}
	for _, s := range specs {
		v, ok := rep.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("%s: no value for %s", label, s.Name)
		}
		fmt.Fprintf(out, "%s %s %s %s\n", label, s.Name, strconv.FormatFloat(v, 'g', -1, 64), s.Unit)
		res.Metrics[prefix+s.Name] = Metric{v, s.Unit}
	}
	res.Attempted += rep.Attempted
	res.Failed += rep.Failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(out, "# %s: %d of %d checks failed\n", label, rep.Failed, rep.Attempted)
	return nil
}

// runWorkload measures one workload: set-up-only children, the
// measuring child, whose resident set is sampled from its ready line to
// its last round line, then set-up-only children again. The memory
// metric is a high percentile of those samples rather than the peak:
// the peak is one transient spike whose height depends on when the
// garbage collector ran, and it varies twofold run to run.
func runWorkload(ctx context.Context, exe string, o Options) (Report, error) {
	var setups []float64
	setUp := func() error {
		for i := 0; i < setupSpawns; i++ {
			d, _, _, err := spawn(ctx, exe, childArgs(o, true))
			if err != nil {
				return fmt.Errorf("set-up child: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := setUp(); err != nil {
		return Report{}, err
	}
	d, rep, rss, err := spawn(ctx, exe, childArgs(o, false))
	if err != nil {
		return Report{}, err
	}
	if len(rss) == 0 {
		return Report{}, errors.New("no resident-set sample taken")
	}
	setups = append(setups, d.Seconds())
	if err := setUp(); err != nil {
		return Report{}, err
	}
	rep.Metrics["setup_s"] = median(setups)
	rep.Metrics["rss_p90_mb"] = quantile(rss, 0.9)
	rep.note("resident set: %d samples, peak %.1f MB", len(rss), quantile(rss, 1))
	return rep, nil
}

func childArgs(o Options, setupOnly bool) []string {
	args := []string{"-child", "-workload", o.Workload,
		"-seed", strconv.FormatUint(o.Seed, 10),
		"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64),
		"-refs", strconv.Itoa(o.Refs)}
	if o.Trace {
		args = append(args, "-trace", "1", "-trace-out", o.TraceOut)
	}
	if o.CPUProfile != "" {
		args = append(args, "-cpuprofile", o.CPUProfile)
	}
	if o.MemProfile != "" {
		args = append(args, "-memprofile", o.MemProfile)
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	return args
}

// suffixed inserts the workload name before a path's extension, so one
// profile flag yields one file per workload.
func suffixed(path, workload string) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler samples a process's resident set, in MB, every rssEvery.
type rssSampler struct {
	path string
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []float64
}

// startRSS takes a process's first resident-set sample, then keeps
// sampling in the background until finish.
func startRSS(pid int) *rssSampler {
	s := &rssSampler{
		path: fmt.Sprintf("/proc/%d/statm", pid),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return
	}
	var size, resident uint64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil || resident == 0 {
		return
	}
	s.mu.Lock()
	s.samples = append(s.samples, float64(resident)*float64(os.Getpagesize())/1e6)
	s.mu.Unlock()
}

// count returns how many samples have been taken so far.
func (s *rssSampler) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// finish stops sampling, waits for the sampler to end, and returns the
// samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// spawn runs a child, times it from start until its ready line, samples
// its resident set from then on, and returns its report. The samples
// kept end at the child's last round line, or at its exit if it prints
// none.
func spawn(ctx context.Context, exe string, args []string) (time.Duration, Report, []float64, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, Report{}, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, Report{}, nil, err
	}
	var setup time.Duration
	var last string
	var sampler *rssSampler
	kept := -1
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		switch {
		case sc.Text() == readyLine && sampler == nil:
			setup = time.Since(start)
			sampler = startRSS(cmd.Process.Pid)
		case sc.Text() == roundLine && sampler != nil:
			kept = sampler.count()
		default:
			last = sc.Text()
		}
	}
	var rss []float64
	if sampler != nil {
		rss = sampler.finish()
		if kept >= 0 {
			rss = rss[:kept]
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, Report{}, nil, err
	}
	if scanErr != nil {
		return 0, Report{}, nil, scanErr
	}
	if sampler == nil {
		return 0, Report{}, nil, errors.New("child exited without becoming ready")
	}
	var rep Report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return 0, Report{}, nil, fmt.Errorf("child report: %w", err)
	}
	return setup, rep, rss, nil
}
