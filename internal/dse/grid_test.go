package dse

import (
	"encoding/json"
	"math"
	"testing"
)

func TestAxisExpandList(t *testing.T) {
	a := Axis{Name: "design", Values: []any{"a", "b", 3.5}}
	got, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []any{"a", "b", 3.5}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAxisExpandRange(t *testing.T) {
	a := Axis{Name: "distance", Range: &Range{From: 3, To: 11, Step: 2}}
	got, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 5, 7, 9, 11}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].(float64) != w {
			t.Errorf("value %d = %v, want %v", i, got[i], w)
		}
	}
}

func TestAxisExpandLogRange(t *testing.T) {
	a := Axis{Name: "err", LogRange: &LogRange{From: 1e-5, To: 1e-3, Points: 3}}
	got, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Endpoints exact, midpoint geometric.
	if got[0].(float64) != 1e-5 || got[2].(float64) != 1e-3 {
		t.Errorf("endpoints = %v, %v; want exact 1e-5, 1e-3", got[0], got[2])
	}
	mid := got[1].(float64)
	if math.Abs(mid-1e-4)/1e-4 > 1e-12 {
		t.Errorf("midpoint = %v, want ~1e-4", mid)
	}
}

func TestAxisExpandErrors(t *testing.T) {
	cases := []Axis{
		{},                               // no name
		{Name: "x"},                      // no generator
		{Name: "x", Values: []any{}},     // empty list
		{Name: "x", Values: []any{true}}, // bad type
		{Name: "x", Values: []any{math.NaN()}},
		{Name: "x", Range: &Range{From: 0, To: 1, Step: 0}},
		{Name: "x", Range: &Range{From: 2, To: 1, Step: 1}},
		{Name: "x", Range: &Range{From: 0, To: 1e9, Step: 1e-3}}, // too many
		{Name: "x", LogRange: &LogRange{From: 0, To: 1, Points: 4}},
		{Name: "x", LogRange: &LogRange{From: 1, To: 2, Points: 0}},
		{Name: "x", Values: []any{1.0}, Range: &Range{From: 0, To: 1, Step: 1}}, // two forms
	}
	for i, a := range cases {
		if _, err := a.Expand(); err == nil {
			t.Errorf("case %d: expected error, got none", i)
		}
	}
}

func TestGridPointsRowMajor(t *testing.T) {
	g := Grid{Axes: []Axis{
		{Name: "a", Values: []any{"x", "y"}},
		{Name: "b", Values: []any{1.0, 2.0, 3.0}},
	}}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("size = %d, want 6", len(pts))
	}
	// Axis 0 slowest, axis 1 fastest.
	wantA := []string{"x", "x", "x", "y", "y", "y"}
	wantB := []float64{1, 2, 3, 1, 2, 3}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if p.Coords["a"] != wantA[i] || p.Coords["b"] != wantB[i] {
			t.Errorf("point %d = %v, want a=%v b=%v", i, p.Coords, wantA[i], wantB[i])
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := (Grid{}).Points(); err == nil {
		t.Error("empty grid: expected error")
	}
	dup := Grid{Axes: []Axis{
		{Name: "a", Values: []any{1.0}},
		{Name: "a", Values: []any{2.0}},
	}}
	if _, err := dup.Points(); err == nil {
		t.Error("duplicate axis: expected error")
	}
	big := Grid{Axes: []Axis{
		{Name: "a", Range: &Range{From: 0, To: 999, Step: 1}},
		{Name: "b", Range: &Range{From: 0, To: 999, Step: 1}},
	}}
	if _, err := big.Points(); err == nil {
		t.Error("oversized grid: expected error")
	}
}

func TestGridRoundTripsThroughJSON(t *testing.T) {
	// A grid decoded from a request body (axis values land as float64)
	// expands identically to one built in Go.
	blob := `{"axes":[{"name":"design","values":["a","b"]},{"name":"distance","range":{"from":3,"to":7,"step":2}}]}`
	var g Grid
	if err := json.Unmarshal([]byte(blob), &g); err != nil {
		t.Fatal(err)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Errorf("size = %d, want 6", len(pts))
	}
}
