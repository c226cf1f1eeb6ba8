package main

// compare applies the paired-run rule of the choosing-metrics guide
// (§8) to two directories of -record files, parent (A) and change (B):
// a metric improved when B wins at least nine tenths of the pairs and
// the medians differ by more than A's quartile spread; an end-to-end
// metric is worse when B's median is worse than A's by more than its
// BENCHMARK.json bound, and unresolved when A's own spread is wider
// than the bound.
//
// Runs pair by workload, tracing and seed. Only pairs where both runs
// were correct enter the series. A workload where B has more incorrect
// runs than A is worse on every metric, whatever its timings say.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// Verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges B against A for one metric. a[i] and b[i] are the
// same seed's runs. better is "higher" or "lower"; bounded reports
// whether the metric has a bound (end-to-end metrics do), a share of
// A's median.
func verdict(a, b []float64, better string, bound float64, bounded bool) (string, float64) {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	spread := q3 - q1
	gain := sign * (medB - medA)
	pairs := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	winFrac := 0.0
	if pairs > 0 {
		winFrac = float64(wins) / float64(pairs)
	}
	switch {
	case pairs == 0:
		return unresolved, winFrac
	case winFrac >= 0.9 && gain > spread:
		return improved, winFrac
	case !bounded:
		if float64(losses) >= 0.9*float64(pairs) && -gain > spread {
			return worse, winFrac
		}
		return unchanged, winFrac
	case -gain > bound*math.Abs(medA):
		return worse, winFrac
	case spread > bound*math.Abs(medA) && !allBetter(a, b, sign):
		return unresolved, winFrac
	}
	return unchanged, winFrac
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, sign float64) bool {
	worstB, bestA := math.Inf(1), math.Inf(-1)
	for _, x := range b {
		worstB = math.Min(worstB, sign*x)
	}
	for _, x := range a {
		bestA = math.Max(bestA, sign*x)
	}
	return worstB > bestA
}

// runKey identifies a run; a parent run pairs with the change's run
// of the same key.
type runKey struct {
	workload string
	trace    bool
	seed     int64
}

// group is the runs compared together: one workload, traced or not.
type group struct {
	workload string
	trace    bool
}

// loadRuns reads every *.json and *.jsonl file in dir. A run recorded
// twice is an error, because it could not be paired.
func loadRuns(dir string) (map[runKey]record, error) {
	out := map[runKey]record{}
	for _, pattern := range []string{"*.json", "*.jsonl"} {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			recs, err := readRecords(p)
			if err != nil {
				return nil, err
			}
			for _, r := range recs {
				k := runKey{r.Workload, r.Trace, r.Seed}
				if _, dup := out[k]; dup {
					return nil, fmt.Errorf("%s: %s (trace %v) seed %d recorded twice", dir, r.Workload, r.Trace, r.Seed)
				}
				out[k] = r
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", dir)
	}
	return out, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// pairing is one group's runs matched seed by seed.
type pairing struct {
	pairs        [][2]record // A's and B's run of one seed, both correct
	badA, badB   int         // incorrect runs on each side
	runsA, runsB int
	onlyA, onlyB []int64 // seeds without a partner
}

func pairRuns(a, b map[runKey]record) map[group]*pairing {
	out := map[group]*pairing{}
	get := func(k runKey) *pairing {
		g := group{k.workload, k.trace}
		if out[g] == nil {
			out[g] = &pairing{}
		}
		return out[g]
	}
	for k, ra := range a {
		p := get(k)
		p.runsA++
		if !ra.Result.Correct {
			p.badA++
		}
		rb, ok := b[k]
		switch {
		case !ok:
			p.onlyA = append(p.onlyA, k.seed)
		case ra.Result.Correct && rb.Result.Correct:
			p.pairs = append(p.pairs, [2]record{ra, rb})
		}
	}
	for k, rb := range b {
		p := get(k)
		p.runsB++
		if !rb.Result.Correct {
			p.badB++
		}
		if _, ok := a[k]; !ok {
			p.onlyB = append(p.onlyB, k.seed)
		}
	}
	for _, p := range out {
		slices.Sort(p.onlyA)
		slices.Sort(p.onlyB)
	}
	return out
}

// compareDirs prints one row per (workload, metric) with pairs on both
// sides, then each workload's pairing and incorrect runs.
func compareDirs(w io.Writer, repo, dirA, dirB string) error {
	spec, err := loadSpec(repo)
	if err != nil {
		return err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	groups := pairRuns(a, b)
	keys := make([]group, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB wins\tverdict")
	for _, g := range keys {
		p := groups[g]
		for _, d := range spec.metrics(g.trace) {
			var sa, sb []float64
			for _, pr := range p.pairs {
				va, okA := pr[0].Result.Metrics[d.Name]
				vb, okB := pr[1].Result.Metrics[d.Name]
				if okA && okB {
					sa, sb = append(sa, va.Value), append(sb, vb.Value)
				}
			}
			if len(sa) == 0 {
				continue
			}
			v, win := verdict(sa, sb, d.Better, d.Bound, !g.trace)
			if p.badB > p.badA {
				v = worse
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.0f%%\t%s\n", g.workload, d.Name, d.Unit,
				summary(sa), summary(sb), 100*win, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, g := range keys {
		p := groups[g]
		fmt.Fprintf(w, "%s (trace %v): %d pairs; incorrect runs A %d of %d, B %d of %d",
			g.workload, g.trace, len(p.pairs), p.badA, p.runsA, p.badB, p.runsB)
		if len(p.onlyA)+len(p.onlyB) > 0 {
			fmt.Fprintf(w, "; unpaired seeds A %v, B %v", p.onlyA, p.onlyB)
		}
		if p.badB > p.badA {
			fmt.Fprint(w, "; B has more incorrect runs, so every metric is worse")
		}
		fmt.Fprintln(w)
	}
	return nil
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", med, q1, q3, len(xs))
}
