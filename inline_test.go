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

// TestShardDrawsInline pins that the compiler inlines math/rand's
// (*Rand).Float64 at every RNG.Float64() draw of the Monte-Carlo kernels
// (readout and pauli; surface draws its Bernoulli blocks through
// simrun.ShardTask.Hits instead). Those packages reach math/rand only
// through simrun.ShardTask.RNG, so the inline body must come from simrun's
// export data, which carries it only while simrun's own code calls Float64
// (its init self-check does). Losing the inlines costs a call per draw.
func TestShardDrawsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiler-diagnostics build skipped in -short mode")
	}
	pkgs := []string{"./internal/surface", "./internal/readout", "./internal/pauli"}

	// Every RNG.Float64() call in the packages' non-test sources, by the
	// position of its opening parenthesis, which is where -m reports it.
	want := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		files, err := filepath.Glob(filepath.Join(p, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Float64" {
					if rng, ok := sel.X.(*ast.SelectorExpr); ok && rng.Sel.Name == "RNG" {
						want[fset.Position(call.Lparen).String()] = true
					}
				}
				return true
			})
		}
	}
	if len(want) == 0 {
		t.Fatal("found no RNG.Float64() call to check")
	}

	out, err := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlined := map[string]bool{}
	re := regexp.MustCompile(`(?m)^(\S+:\d+:\d+): inlining call to rand\.\(\*Rand\)\.Float64$`)
	for _, m := range re.FindAllStringSubmatch(string(out), -1) {
		inlined[m[1]] = true
	}
	missed := 0
	for pos := range want {
		if !inlined[pos] {
			t.Errorf("%s: RNG.Float64() is not inlined", pos)
			missed++
		}
	}
	t.Logf("%d of %d RNG.Float64() draws inlined", len(want)-missed, len(want))
}
