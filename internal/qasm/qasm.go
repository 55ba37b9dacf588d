// Package qasm parses the OpenQASM 2 subset QIsim's cycle-accurate simulator
// consumes: qreg/creg declarations, the standard gate set (h, x, y, z, s,
// sdg, t, tdg, rx, ry, rz, cx, cz, swap), measure, and barrier. Programs are
// flattened to a single quantum register's index space.
package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"qisim/internal/simerr"
)

// Gate is one parsed operation.
type Gate struct {
	Name   string
	Qubits []int
	Params []float64
	// CBit is the classical target of a measure (-1 otherwise).
	CBit int
}

// Program is a parsed OpenQASM program.
type Program struct {
	NQubits int
	NClbits int
	Gates   []Gate
}

// Validate checks a (possibly programmatically built) Program for
// structural corruption: qubit/clbit indices out of range, wrong gate arity,
// NaN parameters. Failures are classed ErrInvalidConfig — this is the guard
// the compiler runs before lowering an instruction stream.
func (p *Program) Validate() error {
	if p == nil {
		return simerr.Invalidf("qasm: nil program")
	}
	if p.NQubits < 0 || p.NClbits < 0 {
		return simerr.Invalidf("qasm: negative register size (%d qubits, %d clbits)", p.NQubits, p.NClbits)
	}
	for i, g := range p.Gates {
		switch g.Name {
		case "barrier":
			continue
		case "measure":
			if len(g.Qubits) != 1 {
				return simerr.Invalidf("qasm: gate %d: measure takes one qubit, got %d", i, len(g.Qubits))
			}
			if g.CBit < 0 || (p.NClbits > 0 && g.CBit >= p.NClbits) {
				return simerr.Invalidf("qasm: gate %d: classical bit %d out of range [0,%d)", i, g.CBit, p.NClbits)
			}
		case "cx", "cz", "swap":
			if len(g.Qubits) != 2 {
				return simerr.Invalidf("qasm: gate %d: %s takes two qubits, got %d", i, g.Name, len(g.Qubits))
			}
			if g.Qubits[0] == g.Qubits[1] {
				return simerr.Invalidf("qasm: gate %d: %s control equals target (%d)", i, g.Name, g.Qubits[0])
			}
		case "h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "id", "sx":
			if len(g.Qubits) != 1 {
				return simerr.Invalidf("qasm: gate %d: %s takes one qubit, got %d", i, g.Name, len(g.Qubits))
			}
		default:
			return simerr.Invalidf("qasm: gate %d: unknown gate %q", i, g.Name)
		}
		for _, q := range g.Qubits {
			if q < 0 || q >= p.NQubits {
				return simerr.Invalidf("qasm: gate %d (%s): qubit %d out of range [0,%d)", i, g.Name, q, p.NQubits)
			}
		}
		for _, v := range g.Params {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return simerr.Invalidf("qasm: gate %d (%s): non-finite parameter %v", i, g.Name, v)
			}
		}
	}
	return nil
}

// Parse parses OpenQASM 2 source. All parse failures — malformed statements
// as well as constructs outside the supported subset — are classed as
// simerr.ErrUnsupportedQASM; no input can make Parse panic (enforced both by
// the boundary recover below and by the FuzzParse target).
func Parse(src string) (prog *Program, err error) {
	defer simerr.RecoverInto(&err, simerr.ErrUnsupportedQASM)
	prog, perr := parse(src)
	if perr != nil {
		return nil, fmt.Errorf("%w: %w", simerr.ErrUnsupportedQASM, perr)
	}
	return prog, nil
}

// reg records a declared register's slice of the flattened index space.
type reg struct{ base, size int }

func parse(src string) (*Program, error) {
	p := &Program{}
	regs := map[string]reg{} // name → flattened slice
	cregs := map[string]reg{}

	// Strip comments, split statements on ';'.
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	for _, stmt := range strings.Split(clean.String(), ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		switch {
		case strings.HasPrefix(stmt, "OPENQASM"), strings.HasPrefix(stmt, "include"):
			continue
		case strings.HasPrefix(stmt, "qreg"):
			name, size, err := parseReg(stmt[4:])
			if err != nil {
				return nil, err
			}
			regs[name] = reg{base: p.NQubits, size: size}
			p.NQubits += size
		case strings.HasPrefix(stmt, "creg"):
			name, size, err := parseReg(stmt[4:])
			if err != nil {
				return nil, err
			}
			cregs[name] = reg{base: p.NClbits, size: size}
			p.NClbits += size
		case strings.HasPrefix(stmt, "barrier"):
			p.Gates = append(p.Gates, Gate{Name: "barrier", CBit: -1})
		case strings.HasPrefix(stmt, "measure"):
			g, err := parseMeasure(stmt, regs, cregs)
			if err != nil {
				return nil, err
			}
			p.Gates = append(p.Gates, g)
		default:
			g, err := parseGate(stmt, regs)
			if err != nil {
				return nil, err
			}
			p.Gates = append(p.Gates, g)
		}
	}
	return p, nil
}

func parseReg(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "[")
	close := strings.Index(s, "]")
	if open < 0 || close < open {
		return "", 0, fmt.Errorf("qasm: malformed register %q", s)
	}
	size, err := strconv.Atoi(s[open+1 : close])
	if err != nil || size <= 0 {
		return "", 0, fmt.Errorf("qasm: bad register size in %q", s)
	}
	return strings.TrimSpace(s[:open]), size, nil
}

func parseMeasure(stmt string, regs, cregs map[string]reg) (Gate, error) {
	body := strings.TrimSpace(stmt[len("measure"):])
	parts := strings.Split(body, "->")
	if len(parts) != 2 {
		return Gate{}, fmt.Errorf("qasm: malformed measure %q", stmt)
	}
	q, err := resolveIndex(strings.TrimSpace(parts[0]), regs)
	if err != nil {
		return Gate{}, err
	}
	c, err := resolveIndex(strings.TrimSpace(parts[1]), cregs)
	if err != nil {
		return Gate{}, err
	}
	return Gate{Name: "measure", Qubits: []int{q}, CBit: c}, nil
}

func parseGate(stmt string, regs map[string]reg) (Gate, error) {
	g := Gate{CBit: -1}
	rest := stmt
	// Optional parameter list.
	if open := strings.Index(stmt, "("); open >= 0 && open < strings.IndexAny(stmt+" ", " \t") {
		close := strings.Index(stmt, ")")
		if close < open {
			return g, fmt.Errorf("qasm: malformed parameters in %q", stmt)
		}
		g.Name = strings.TrimSpace(stmt[:open])
		for _, ps := range strings.Split(stmt[open+1:close], ",") {
			v, err := evalParam(strings.TrimSpace(ps))
			if err != nil {
				return g, err
			}
			g.Params = append(g.Params, v)
		}
		rest = stmt[close+1:]
	} else {
		fields := strings.SplitN(stmt, " ", 2)
		if len(fields) != 2 {
			return g, fmt.Errorf("qasm: malformed statement %q", stmt)
		}
		g.Name = strings.TrimSpace(fields[0])
		rest = fields[1]
	}
	for _, qs := range strings.Split(rest, ",") {
		q, err := resolveIndex(strings.TrimSpace(qs), regs)
		if err != nil {
			return g, err
		}
		g.Qubits = append(g.Qubits, q)
	}
	switch g.Name {
	case "h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "id", "sx":
		if len(g.Qubits) != 1 {
			return g, fmt.Errorf("qasm: %s takes one qubit, got %d", g.Name, len(g.Qubits))
		}
	case "cx", "cz", "swap":
		if len(g.Qubits) != 2 {
			return g, fmt.Errorf("qasm: %s takes two qubits, got %d", g.Name, len(g.Qubits))
		}
		if g.Qubits[0] == g.Qubits[1] {
			return g, fmt.Errorf("qasm: %s control equals target (%d)", g.Name, g.Qubits[0])
		}
	default:
		return g, fmt.Errorf("qasm: unsupported gate %q", g.Name)
	}
	return g, nil
}

func resolveIndex(s string, regs map[string]reg) (int, error) {
	open := strings.Index(s, "[")
	close := strings.Index(s, "]")
	if open < 0 || close < open {
		return 0, fmt.Errorf("qasm: expected reg[idx], got %q", s)
	}
	r, ok := regs[strings.TrimSpace(s[:open])]
	if !ok {
		return 0, fmt.Errorf("qasm: unknown register in %q", s)
	}
	idx, err := strconv.Atoi(s[open+1 : close])
	if err != nil || idx < 0 {
		return 0, fmt.Errorf("qasm: bad index in %q", s)
	}
	if idx >= r.size {
		return 0, fmt.Errorf("qasm: index %d out of range for %d-wide register in %q", idx, r.size, s)
	}
	return r.base + idx, nil
}

// evalParam evaluates the restricted parameter grammar: float literals, pi,
// unary minus, and binary */ with pi (e.g. "pi/2", "-3*pi/4", "0.25"). A
// value that is not finite (e.g. "1/0", "nan") is rejected.
func evalParam(s string) (float64, error) {
	s = strings.ReplaceAll(s, " ", "")
	if s == "" {
		return 0, fmt.Errorf("qasm: empty parameter")
	}
	neg := false
	if s[0] == '-' {
		neg = true
		s = s[1:]
	}
	val := 1.0
	div := false
	for _, tok := range splitTokens(s) {
		switch tok {
		case "*":
		case "/":
			div = true
		case "pi":
			val = apply(val, math.Pi, div)
			div = false
		default:
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return 0, fmt.Errorf("qasm: bad parameter token %q", tok)
			}
			val = apply(val, f, div)
			div = false
		}
	}
	if neg {
		val = -val
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return 0, fmt.Errorf("qasm: parameter evaluates to %v", val)
	}
	return val, nil
}

func apply(acc, v float64, div bool) float64 {
	if div {
		return acc / v
	}
	return acc * v
}

func splitTokens(s string) []string {
	var out []string
	cur := strings.Builder{}
	for _, r := range s {
		if r == '*' || r == '/' {
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
			out = append(out, string(r))
		} else {
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// Emit renders a Program back to OpenQASM 2 source. Empty registers are
// omitted (a `qreg q[0]` declaration would not re-parse), so Emit∘Parse is
// a fixed point on the supported subset — the property FuzzParse enforces.
func Emit(p *Program) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")
	if p.NQubits > 0 {
		fmt.Fprintf(&b, "qreg q[%d];\n", p.NQubits)
	}
	if p.NClbits > 0 {
		fmt.Fprintf(&b, "creg c[%d];\n", p.NClbits)
	}
	for _, g := range p.Gates {
		switch g.Name {
		case "barrier":
			b.WriteString("barrier q;\n")
		case "measure":
			fmt.Fprintf(&b, "measure q[%d] -> c[%d];\n", g.Qubits[0], g.CBit)
		default:
			b.WriteString(g.Name)
			if len(g.Params) > 0 {
				b.WriteByte('(')
				for i, v := range g.Params {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%g", v)
				}
				b.WriteByte(')')
			}
			b.WriteByte(' ')
			for i, q := range g.Qubits {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "q[%d]", q)
			}
			b.WriteString(";\n")
		}
	}
	return b.String()
}
