// Package noclock forbids wall-clock and global-randomness reads in
// simulation and aggregation code: every result in this repo must be
// a pure function of (scenario, seed), so time.Now/Since/Until and
// the package-level math/rand functions (whose state is global and
// unseeded) are banned. Seeded generators (rand.New(rand.NewSource))
// are fine — they are how scenarios derandomize — so the rand
// constructors stay legal. Package time's timers and sleeps
// (NewTicker, NewTimer, Tick, After, AfterFunc, Sleep) are banned too:
// anything paced by host time reads it through an injected
// fleet.Clock, which is what lets tests drive it with a fake clock and
// no sleeps.
//
// The one legitimate wall-clock use — host-time reporting and
// progress/ETA pacing — is annotated `//ehdl:wallclock <why>` and is
// concentrated in fleet.SystemClock.
package noclock

import (
	"go/ast"
	"go/types"

	"ehdl/internal/analysis"
	"ehdl/internal/analysis/directive"
)

// Analyzer is the noclock pass.
var Analyzer = &analysis.Analyzer{
	Name:     "noclock",
	Doc:      "forbids wall-clock reads, timers, sleeps and global math/rand in simulation and aggregation code",
	Packages: []string{"ehdl/internal/..."},
	Exclude:  []string{"ehdl/internal/analysis/..."},
	Run:      run,
}

// wallReads are the wall-clock reads in package time.
var wallReads = map[string]bool{"Now": true, "Since": true, "Until": true}

// timers are package time's functions that wait on the host clock.
var timers = map[string]bool{
	"NewTicker": true, "NewTimer": true, "Tick": true,
	"After": true, "AfterFunc": true, "Sleep": true,
}

// allowedRand are the package-level math/rand (and rand/v2)
// constructors that build seeded, local generators.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		idx := directive.Index(pass.Fset, file)
		analysis.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Only package-level functions: methods on *rand.Rand or
			// time.Time values are deterministic given their receiver.
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			var msg string
			switch fn.Pkg().Path() {
			case "time":
				switch {
				case wallReads[fn.Name()]:
					msg = "time." + fn.Name() + " reads the wall clock; results must be pure in (scenario, seed) — inject a fleet.Clock, or annotate //ehdl:wallclock <why> for progress-only use"
				case timers[fn.Name()]:
					msg = "time." + fn.Name() + " waits on the host clock; pace on an injected fleet.Clock instead"
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					msg = "global rand." + fn.Name() + " uses unseeded process-wide state; use a seeded rand.New(rand.NewSource(seed)) instead"
				}
			}
			if msg == "" {
				return true
			}
			if d, ok := idx.Covering(pass.Fset, id, stack, "wallclock"); ok {
				if d.Arg == "" {
					pass.Reportf(d.Pos, "//ehdl:wallclock needs a justification: say why this read cannot reach simulated results")
				}
				return true
			}
			pass.Reportf(id.Pos(), "%s", msg)
			return true
		})
	}
	return nil
}
