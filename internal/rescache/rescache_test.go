package rescache

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestKeyForFieldOrderIndependence: two JSON-equivalent params values that
// differ only in key order (and nesting order) must produce the same key.
func TestKeyForFieldOrderIndependence(t *testing.T) {
	a := json.RawMessage(`{"distance":11,"p":0.005,"opts":{"x":1,"y":2}}`)
	b := json.RawMessage(`{"opts":{"y":2,"x":1},"p":0.005,"distance":11}`)
	ka, err := KeyFor("surface.mc", a, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := KeyFor("surface.mc", b, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("field order changed the key: %s vs %s", ka, kb)
	}
	if !ka.Valid() {
		t.Fatalf("key %q not a 64-hex key", ka)
	}
}

// TestKeyForDiscriminates: kind, params, seed and shard size must each flip
// the key — they all change the result bytes.
func TestKeyForDiscriminates(t *testing.T) {
	p := map[string]any{"distance": 11}
	base, err := KeyFor("surface.mc", p, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		key  func() (Key, error)
	}{
		{"kind", func() (Key, error) { return KeyFor("pauli.mc", p, 1, 512) }},
		{"params", func() (Key, error) { return KeyFor("surface.mc", map[string]any{"distance": 13}, 1, 512) }},
		{"seed", func() (Key, error) { return KeyFor("surface.mc", p, 2, 512) }},
		{"shard size", func() (Key, error) { return KeyFor("surface.mc", p, 1, 256) }},
	}
	for _, v := range variants {
		k, err := v.key()
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("changing %s did not change the key", v.name)
		}
	}
}

// TestCanonicalJSONStable: struct vs map vs raw JSON with shuffled keys all
// canonicalize to the same bytes.
func TestCanonicalJSONStable(t *testing.T) {
	type s struct {
		B int `json:"b"`
		A int `json:"a"`
	}
	c1, err := CanonicalJSON(s{B: 2, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CanonicalJSON(map[string]int{"b": 2, "a": 1})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := CanonicalJSON(json.RawMessage("{ \"b\" : 2,\n\"a\": 1 }"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) || !bytes.Equal(c2, c3) {
		t.Fatalf("canonical forms differ: %s / %s / %s", c1, c2, c3)
	}
	if string(c1) != `{"a":1,"b":2}` {
		t.Fatalf("canonical form %s, want sorted compact object", c1)
	}
}

func mustKey(t *testing.T, kind string, seed int64) Key {
	t.Helper()
	k, err := KeyFor(kind, map[string]any{"seed": seed}, seed, 512)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCacheHitMissAndCopy: basic round-trip, stats accounting, and the
// defensive copy (mutating a returned body must not poison the cache).
func TestCacheHitMissAndCopy(t *testing.T) {
	c := New(4)
	k := mustKey(t, "surface.mc", 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "surface.mc", []byte(`{"rate":0.01}`))
	got, ok := c.Get(k)
	if !ok || string(got) != `{"rate":0.01}` {
		t.Fatalf("get = %q, %v", got, ok)
	}
	got[0] = 'X' // caller mutates its copy
	again, ok := c.Get(k)
	if !ok || string(again) != `{"rate":0.01}` {
		t.Fatalf("returned body not defensively copied: %q, %v", again, ok)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Corruptions != 0 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheLRUEviction: the least recently used entry is evicted at the
// bound, and a Get refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	k1, k2, k3 := mustKey(t, "a", 1), mustKey(t, "a", 2), mustKey(t, "a", 3)
	c.Put(k1, "a", []byte("1"))
	c.Put(k2, "a", []byte("2"))
	if _, ok := c.Get(k1); !ok { // refresh k1: k2 becomes LRU
		t.Fatal("k1 missing before eviction")
	}
	c.Put(k3, "a", []byte("3"))
	if c.Contains(k2) {
		t.Fatal("LRU entry k2 survived eviction")
	}
	if !c.Contains(k1) || !c.Contains(k3) {
		t.Fatal("recently used entries evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// tamper mutates the stored body of key in place WITHOUT updating its
// checksum. It returns false when the key is absent.
func tamper(c *Cache, key Key, mutate func(body []byte)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	mutate(el.Value.(*entry).body)
	return true
}

// TestCacheDetectsCorruption is the integrity contract: a tampered body is
// detected on Get, dropped, counted, and never served; a fresh Put recovers.
func TestCacheDetectsCorruption(t *testing.T) {
	c := New(4)
	k := mustKey(t, "surface.mc", 7)
	body := []byte(`{"failures":12,"shots":1000}`)
	c.Put(k, "surface.mc", body)
	if !tamper(c, k, func(b []byte) { b[2] ^= 0xff }) {
		t.Fatal("tamper hook missed the entry")
	}
	if got, ok := c.Get(k); ok {
		t.Fatalf("corrupted entry served: %q", got)
	}
	st := c.Stats()
	if st.Corruptions != 1 || st.Entries != 0 {
		t.Fatalf("corruption not accounted: %+v", st)
	}
	// Recompute path: a fresh Put fully recovers the key.
	c.Put(k, "surface.mc", body)
	if got, ok := c.Get(k); !ok || !bytes.Equal(got, body) {
		t.Fatalf("recovery Put failed: %q, %v", got, ok)
	}
}

// TestKeyVersionPinned: the envelope version is part of the hash — bumping
// it must change every key. (Guards against accidental envelope edits that
// forget the version bump; see also the golden key test in
// internal/service.)
func TestKeyVersionPinned(t *testing.T) {
	if KeyVersion != 1 {
		t.Fatalf("KeyVersion = %d; if this bump is intentional, update the golden key test in internal/service too", KeyVersion)
	}
}

func TestKindCounts(t *testing.T) {
	c := New(10)
	c.Put("k1", "dse.point", []byte("a"))
	c.Put("k2", "dse.point", []byte("b"))
	c.Put("k3", "surface.mc", []byte("c"))
	got := c.KindCounts()
	if got["dse.point"] != 2 || got["surface.mc"] != 1 || len(got) != 2 {
		t.Fatalf("KindCounts = %v", got)
	}
	// Re-putting an existing key must not double-count.
	c.Put("k1", "dse.point", []byte("a2"))
	if got := c.KindCounts(); got["dse.point"] != 2 {
		t.Fatalf("after re-put: %v", got)
	}
}
