package lru

import "testing"

func TestEntryBoundEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2, 0)
	c.Add("a", 1, 0)
	c.Add("b", 2, 0)
	if _, ok := c.Get("a"); !ok { // a is now the most recent
		t.Fatal("a missing")
	}
	if n := c.Add("c", 3, 0); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%q) = %d, %v; want %d", k, v, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCostBound(t *testing.T) {
	c := New[string, int](100, 10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 4)
	if n := c.Add("c", 3, 4); n != 1 || c.cost != 8 {
		t.Fatalf("evicted %d cost %d, want 1 and 8", n, c.cost)
	}
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted by the cost bound")
	}
	// Replacing an entry re-prices it; growing it can evict others.
	if n := c.Add("c", 30, 9); n != 1 || c.cost != 9 || c.Len() != 1 {
		t.Fatalf("after re-pricing c: evicted %d cost %d len %d, want 1, 9, 1", n, c.cost, c.Len())
	}
	if v, _ := c.Get("c"); v != 30 {
		t.Errorf("c = %d, want the replacement 30", v)
	}
	// An entry that can never fit is refused and evicts nothing.
	if n := c.Add("huge", 4, 11); n != 0 || c.Len() != 1 {
		t.Fatalf("oversized add: evicted %d len %d, want 0 and 1", n, c.Len())
	}
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry was retained")
	}
}

func TestNilLen(t *testing.T) {
	var c *Cache[int, int]
	if c.Len() != 0 {
		t.Error("nil cache must report Len 0")
	}
}
