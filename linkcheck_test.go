//go:build linkcheck

package qisim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryFunctionLinked builds the repository's binaries (cmd/*,
// examples/* and bench/) with inlining off, reads their text symbols, and
// requires every non-test function of the qisim module to be linked into
// at least one of them or to be on unlinkedKept. A listed function that is
// now linked, or gone, fails too, so the list stays exact. Run it with
// `make unlinked`; -v logs the unlinked count and lines.
func TestEveryFunctionLinked(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}|{{.Name}}|{{.Dir}}|{{join .GoFiles " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type pkg struct {
		path, dir string
		files     []string
	}
	var pkgs []pkg
	var mains []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		if f[1] == "main" {
			mains = append(mains, f[0])
		}
		pkgs = append(pkgs, pkg{strings.TrimPrefix(f[0], "qisim/"), f[2], strings.Fields(f[3])})
	}
	bin := t.TempDir()
	build := func(dir string, args ...string) {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build in %s: %v\n%s", dir, err, out)
		}
	}
	build(".", append([]string{bin + "/"}, mains...)...)
	build("bench", filepath.Join(bin, "bench"), ".")

	// Linked symbols, keyed as the declarations below are: the package path
	// inside the module, then Func or Type.Method. A main package's symbols
	// are keyed by the directory of the binary they came from.
	linked := map[string]bool{}
	for _, m := range append(mains, "qisim/bench") {
		nm, err := exec.Command("go", "tool", "nm", filepath.Join(bin, filepath.Base(m))).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", m, err)
		}
		for _, line := range strings.Split(string(nm), "\n") {
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := stripBrackets(f[2])
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = m + "." + rest
			}
			rest, ok := strings.CutPrefix(sym, "qisim/")
			if !ok {
				continue
			}
			dot := strings.LastIndex(rest, "/") + 1
			dot += strings.Index(rest[dot:], ".")
			linked[rest[:dot]+"."+pointerRecv.ReplaceAllString(rest[dot+1:], "$1.")] = true
		}
	}

	fset := token.NewFileSet()
	seen := map[string]bool{}
	unlinked, lines := 0, 0
	for _, p := range pkgs {
		for _, name := range p.files {
			file, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := p.path + "." + declName(fd)
				seen[key] = true
				if linked[key] || (fd.Name.Name == "init" && fd.Recv == nil) {
					continue
				}
				start := fd.Pos()
				if fd.Doc != nil {
					start = fd.Doc.Pos()
				}
				unlinked++
				lines += fset.Position(fd.End()).Line - fset.Position(start).Line + 1
				if _, ok := unlinkedKept[key]; !ok {
					t.Errorf("%s: %s is linked into no binary: delete it, move it into the _test.go file of the package whose tests use it, or list it in unlinkedKept with its reason", fset.Position(fd.Pos()), key)
				}
			}
		}
	}
	for k := range unlinkedKept {
		switch {
		case !seen[k]:
			t.Errorf("unlinkedKept lists %s, which no longer exists", k)
		case linked[k]:
			t.Errorf("unlinkedKept lists %s, which a binary now links", k)
		}
	}
	t.Logf("%d non-test functions (%d lines with doc comments) linked into no binary; %d listed", unlinked, lines, len(unlinkedKept))
}

// pointerRecv matches a pointer-receiver method symbol's "(*T)." so that
// a method counts as linked under either receiver.
var pointerRecv = regexp.MustCompile(`^\(\*([^)]+)\)\.`)

// stripBrackets drops generic instantiations ("[go.shape.int]") from a
// symbol, nested brackets included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declName is a declaration's key within its package: Func or Type.Method.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return typ.(*ast.Ident).Name + "." + fd.Name.Name
}

type keepReason int

const (
	claimed  keepReason = iota // a result in README.md, EXPERIMENTS.md or DESIGN.md, or an open ROADMAP item, rests on it
	calledBy                   // kept code calls it
	shared                     // tests in several packages share it
	iface                      // an interface requires it
)

// unlinkedKept lists every non-test function that no binary links, with the
// reason it stays. The claimed ones wait for the qisim-experiments entries
// that will run them (ROADMAP item 3); adding an entry changes the pass
// digest pinned in bench/testdata/pins.json.
var unlinkedKept = map[string]keepReason{
	// README "Beyond the paper's evaluation", EXPERIMENTS.md "Physics
	// backstops": the JoSIM-lite Josephson-transmission-line solver.
	"internal/jj.DefaultJTLine":           claimed,
	"internal/jj.JTLine.PropagationDelay": claimed,
	"internal/jj.JTLine.DelayAsymmetry":   claimed,
	"internal/jj.JTLine.derivs":           calledBy,
	"internal/jj.clamp":                   calledBy,

	// The same sections: the Lindblad master-equation JPM-tunnelling model.
	"internal/ham.DefaultJPMTunnelModel":            claimed,
	"internal/ham.JPMTunnelModel.TunnelProbability": claimed,
	"internal/ham.NewLindblad":                      calledBy,
	"internal/ham.Lindblad.Evolve":                  calledBy,
	"internal/ham.Lindblad.ensure":                  calledBy,
	"internal/ham.Lindblad.derivInto":               calledBy,
	"internal/ham.coherentVec":                      calledBy,
	"internal/ham.logFact":                          calledBy,
	"internal/cmath.ApplyKron":                      calledBy,
	"internal/cmath.ApplyKronInto":                  calledBy,
	"internal/cmath.NormalizeVec":                   calledBy,
	"internal/cmath.VecNorm":                        calledBy,

	// The same sections: Kraus-channel validation of the decoherence-fidelity
	// closed form; the root determinism, worker-count and crash-resume pins
	// run the trajectory MC.
	"internal/pauli.DecoherenceChannel":           claimed,
	"internal/pauli.AverageChannelFidelity":       claimed,
	"internal/pauli.TrajectoryAverageFidelityCtx": claimed,
	"internal/pauli.KrausChannel.Apply":           calledBy,
	"internal/pauli.cardinalStates":               calledBy,
	"internal/pauli.outer":                        calledBy,
	"internal/pauli.expectation":                  calledBy,
	"internal/pauli.conj":                         calledBy,
	"internal/cmath.Matrix.IsFinite":              calledBy,
	"internal/cmath.CheckFiniteScalar":            calledBy,
	"internal/cmath.Overlap":                      calledBy,

	// EXPERIMENTS.md "3-level SFQ bitstreams": 1.40e-3 → 6.5e-5 leakage-
	// inclusive error.
	"internal/gateerror.SFQ1QLeakage": claimed,

	// DESIGN.md "Extensions beyond the paper's evaluation": the AC-Stark /
	// Z-correction crosstalk study.
	"internal/gateerror.DefaultStarkConfig":   claimed,
	"internal/gateerror.StarkShift":           claimed,
	"internal/gateerror.wrapPi":               calledBy,
	"internal/ham.EvolveSamples":              calledBy,
	"internal/ham.DrivenTransmon.Hamiltonian": calledBy,

	// README "Beyond the paper's evaluation": the union-find decoder, which
	// the root determinism and worker-count pins also run.
	"internal/surface.MonteCarloUnionFindCtx":    claimed,
	"internal/surface.graph.decodeUnionFindWith": calledBy,
	"internal/surface.graph.neutral":             calledBy,
	"internal/surface.unionFind.reset":           calledBy,
	"internal/surface.unionFind.find":            calledBy,
	"internal/surface.unionFind.union":           calledBy,

	// EXPERIMENTS.md "Decoder→projection fit" over the code-capacity MC,
	// which the root pins also run, and ROADMAP item 6's threshold bands.
	"internal/surface.FitProjection":                claimed,
	"internal/surface.MonteCarloLogicalErrorCtx":    claimed,
	"internal/surface.ThresholdEstimateCtx":         claimed,
	"internal/surface.PhenomenologicalThresholdCtx": claimed,
	"internal/surface.graph.capacityShard":          calledBy,
	"internal/surface.graph.decodeWith":             calledBy,
	"internal/surface.graph.flip":                   calledBy,

	// ROADMAP item 5: the measured ESM duty cycles.
	"internal/microarch.Design.MeasureESMDuties": claimed,
	"internal/microarch.Design.DutyConsistency":  claimed,

	// Test helpers of several packages.
	"internal/cmath.IsUnitary":            shared, // cmath, ham
	"internal/cmath.Matrix.FrobeniusNorm": calledBy,
	"internal/cmath.PauliX":               shared, // cmath, ham
	"internal/cmath.PauliZ":               shared, // cmath, ham
	"internal/isa.EncodeDrive":            shared, // isa, qcp (EncodeStream)
	"internal/isa.ExtendedDrive":          calledBy,
	"internal/isa.PulseISA":               shared, // isa, qcp (EncodeStream)
	"internal/jobs.Manager.Subscribers":   shared, // jobs, service
	"internal/obs.SpanData.Attr":          shared, // obs, dist, service, simrun
	"internal/obs.Trace.Find":             shared, // obs, chaos, service, simrun, root
	"internal/obs.Trace.Count":            shared, // obs, service, simrun, root
	"internal/obs.Trace.Check":            shared, // obs, dist, service, simrun, root
	"internal/obs.ParseChrome":            shared, // obs, service
	"internal/rescache.Cache.Contains":    shared, // rescache, jobs, service
	"internal/simrun.NewShardTask":        shared, // simrun, readout, surface

	// slog.Handler.
	"internal/obs.Handler.WithAttrs":        iface,
	"internal/obs.Handler.WithGroup":        iface,
	"internal/obs.discardHandler.WithAttrs": iface,
	"internal/obs.discardHandler.WithGroup": iface,
}
