package memo

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicGetAdd(t *testing.T) {
	c := New[string, int](4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if _, _, ev := c.Add("a", 1); ev {
		t.Fatal("first insert evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("got %d,%v want 1,true", v, ok)
	}
	if _, _, ev := c.Add("a", 2); ev {
		t.Fatal("overwrite evicted")
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("overwrite lost: got %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d want 1", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int, int](3)
	for i := 0; i < 3; i++ {
		c.Add(i, i*10)
	}
	// Touch 0 so it is most recently used; 1 becomes the LRU victim.
	c.Get(0)
	if _, _, ev := c.Add(3, 30); !ev {
		t.Fatal("insert at capacity did not evict")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for _, k := range []int{0, 2, 3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %d missing", k)
		}
	}
}

func TestPurge(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 8; i++ {
		c.Add(i, i)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len %d after purge", c.Len())
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("purged entry still present")
	}
	c.Add(1, 1)
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatal("cache unusable after purge")
	}
}

func TestCapacityBound(t *testing.T) {
	const cap = 16
	c := New[int, int](cap)
	for i := 0; i < 10*cap; i++ {
		c.Add(i, i)
		if n := c.Len(); n > cap {
			t.Fatalf("len %d exceeds capacity %d", n, cap)
		}
	}
	if c.Len() != cap {
		t.Fatalf("len %d want %d", c.Len(), cap)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Errorf("corrupt value %d", v)
				}
				c.Add(k, i)
			}
		}(g)
	}
	wg.Wait()
}
