// Package cliflags is the shared command-line surface of the skope tools.
// cmd/skope, cmd/skopec and cmd/skoped present the same concepts — target
// machine, guard limits, hot-spot criteria, sweep configuration — and had
// grown three diverging copies of the same flag definitions. Each concept
// lives here once, as a small struct with a Register method that installs
// its flags on a flag.FlagSet and a resolver that turns the raw strings
// into domain values. Flag names and semantics are frozen; only the help
// text is shared.
package cliflags

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
)

// Machine is the -machine / -machine-file pair selecting the target.
type Machine struct {
	Preset string
	File   string
}

// Register installs the machine flags on fs.
func (m *Machine) Register(fs *flag.FlagSet) {
	fs.StringVar(&m.Preset, "machine", "bgq", "target machine preset (bgq, xeon)")
	fs.StringVar(&m.File, "machine-file", "", "JSON machine description (overrides -machine; see hw.SaveConfig)")
}

// Resolve returns the selected machine: the JSON description when
// -machine-file is set, the named preset otherwise.
func (m *Machine) Resolve() (*hw.Machine, error) {
	if m.File != "" {
		return hw.LoadConfig(m.File)
	}
	return hw.Preset(m.Preset)
}

// Guard is the -limits / -lenient pair controlling resource guards and
// error recovery.
type Guard struct {
	Limits  string
	Lenient bool
}

// Register installs the guard flags on fs.
func (g *Guard) Register(fs *flag.FlagSet) {
	fs.StringVar(&g.Limits, "limits", "", "guard limit overrides, e.g. \"nest-depth=32,bet-nodes=100000\"; keys: "+strings.Join(guard.LimitKeys(), ", "))
	fs.BoolVar(&g.Lenient, "lenient", false, "error-recovering mode: recover from syntax errors and missing profile data, report diagnostics and a confidence score instead of failing")
}

// Resolve parses the -limits overrides.
func (g *Guard) Resolve() (*guard.Limits, error) {
	lim, err := guard.ParseLimits(g.Limits)
	if err != nil {
		return nil, fmt.Errorf("-limits: %w", err)
	}
	return lim, nil
}

// Criteria is the -coverage / -leanness / -spots triple for hot-spot
// selection. Defaults differ per tool (skopec budgets leanness at 1.0, the
// paper pipeline at 0.5), so Register takes them as arguments.
type Criteria struct {
	Coverage float64
	Leanness float64
	MaxSpots int
}

// Register installs the criteria flags on fs with the tool's defaults.
func (c *Criteria) Register(fs *flag.FlagSet, coverage, leanness float64, maxSpots int) {
	fs.Float64Var(&c.Coverage, "coverage", coverage, "hot-spot time coverage target")
	fs.Float64Var(&c.Leanness, "leanness", leanness, "hot-spot code leanness budget")
	fs.IntVar(&c.MaxSpots, "spots", maxSpots, "maximum hot spots to select (0 = unlimited)")
}

// Resolve returns the selection criteria.
func (c *Criteria) Resolve() hotspot.Criteria {
	return hotspot.Criteria{TimeCoverage: c.Coverage, CodeLeanness: c.Leanness, MaxSpots: c.MaxSpots}
}

// AxisList collects repeated -sweep flags, validating each as it arrives.
type AxisList []string

// String joins the collected axis specs (flag.Value).
func (a *AxisList) String() string { return strings.Join(*a, "; ") }

// Set validates and appends one axis spec (flag.Value).
func (a *AxisList) Set(v string) error {
	if _, err := explore.ParseAxis(v); err != nil {
		return err
	}
	*a = append(*a, v)
	return nil
}

// Axes parses the collected specs into exploration axes.
func (a AxisList) Axes() ([]explore.Axis, error) {
	axes := make([]explore.Axis, 0, len(a))
	for _, spec := range a {
		ax, err := explore.ParseAxis(spec)
		if err != nil {
			return nil, err
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// Sweep is the design-space exploration flag set: the grid axes plus the
// durability (journal, store), resilience (retries, timeout), and quality
// (confidence floor) knobs shared by cmd/skope's sweep mode and the skoped
// daemon's per-session defaults.
type Sweep struct {
	Axes           AxisList
	Workers        int
	Top            int
	Journal        string
	Resume         bool
	Store          string
	Retries        int
	VariantTimeout time.Duration
	MinConfidence  float64
	Adaptive       bool
	AdaptiveBudget int
	AdaptiveSeed   uint64
}

// Register installs the sweep flags on fs.
func (s *Sweep) Register(fs *flag.FlagSet) {
	fs.Var(&s.Axes, "sweep", "design-space axis param=v1,v2,... (repeatable; switches to sweep mode)")
	fs.IntVar(&s.Workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&s.Top, "top", 10, "sweep mode: variants to print (0 = all)")
	fs.StringVar(&s.Journal, "journal", "", "sweep mode: append completed variants to this crash-safe journal file")
	fs.BoolVar(&s.Resume, "resume", false, "sweep mode: replay variants already recorded in -journal instead of recomputing them")
	fs.StringVar(&s.Store, "store", "", "content-addressed result store file: serve identical (workload, variant, criteria) results from earlier runs with zero recomputation, and record fresh ones")
	fs.IntVar(&s.Retries, "retries", 0, "sweep mode: retries per variant for transient failures (exponential backoff with jitter)")
	fs.DurationVar(&s.VariantTimeout, "variant-timeout", 0, "sweep mode: deadline per evaluation attempt, e.g. 30s (0 = none)")
	fs.Float64Var(&s.MinConfidence, "min-confidence", 0, "sweep mode: flag variants whose analysis confidence falls below this floor instead of ranking them (0 = off)")
	fs.BoolVar(&s.Adaptive, "adaptive", false, "sweep mode: surrogate-guided search — evaluate a seed sample, fit an online least-squares surrogate, and spend evaluations only on the top-ranked candidates per round instead of the full grid (exhaustive mode stays the golden reference)")
	fs.IntVar(&s.AdaptiveBudget, "adaptive-budget", 0, "adaptive mode: hard cap on evaluations spent, seed sample included (0 = converge on patience alone)")
	fs.Uint64Var(&s.AdaptiveSeed, "adaptive-seed", 0, "adaptive mode: seed for the deterministic fingerprint-keyed bootstrap sample; a fixed seed reproduces the round trace exactly")
}

// Serve is the skoped daemon's robustness surface: admission control,
// session-table hygiene, store scrubbing, and slow-consumer protection.
// Zero values preserve the pre-admission-control behavior (unbounded
// sessions kept forever) except the scrub interval, which defaults on —
// a periodic read-only verification pass is cheap and the quarantine it
// feeds is what makes a corrupt record heal instead of fail.
type Serve struct {
	MaxSessions        int
	SessionTTL         time.Duration
	ScrubInterval      time.Duration
	StreamWriteTimeout time.Duration
}

// Register installs the serve flags on fs.
func (s *Serve) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.MaxSessions, "max-sessions", 0, "admission control: maximum sessions queued or running at once; excess submissions get 503 + Retry-After (0 = unlimited)")
	fs.DurationVar(&s.SessionTTL, "session-ttl", 0, "garbage-collect finished sessions this long after they reach a terminal state, bounding the session table (0 = keep forever)")
	fs.DurationVar(&s.ScrubInterval, "scrub-interval", 10*time.Minute, "background store scrub period: verify every record, quarantine corrupt ones so the next matching evaluation recomputes them (0 = disabled)")
	fs.DurationVar(&s.StreamWriteTimeout, "stream-write-timeout", 30*time.Second, "per-write deadline on NDJSON result streams: a client that stalls longer than this is disconnected instead of pinning the stream (0 = none)")
}

// Variants expands the collected axes into the variant grid around base.
func (s *Sweep) Variants(base *hw.Machine) ([]*hw.Machine, error) {
	axes, err := s.Axes.Axes()
	if err != nil {
		return nil, err
	}
	grid := explore.Grid{Base: base, Axes: axes}
	return grid.Variants()
}
