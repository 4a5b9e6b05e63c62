package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rmscale/internal/fsutil"
)

// Key is a content address: the SHA-256 of the canonical encoding of
// whatever inputs produced a result. Two evaluations with identical
// inputs hash to the same key, so the cache collapses repeated and
// overlapping work no matter which code path requested it.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives a content address from the given parts. Each part is
// canonically encoded as JSON (struct fields in declaration order, map
// keys sorted), so plain config structs hash deterministically. The
// parts should include a format-version string so incompatible cache
// generations never collide.
func KeyOf(parts ...any) (Key, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return Key{}, fmt.Errorf("runner: hashing cache key: %w", err)
		}
	}
	var k Key
	copy(k[:], h.Sum(nil))
	return k, nil
}

// Cache is a content-addressed result store with a memory tier and an
// optional disk tier. It is safe for concurrent use; hit and miss
// counts feed the progress reporter's cache hit rate.
type Cache struct {
	mu  sync.Mutex
	mem map[Key][]byte
	dir string // "" = memory only

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns a cache persisting under dir/cache, or a purely
// in-memory cache when dir is empty.
func NewCache(dir string) (*Cache, error) {
	c := &Cache{mem: make(map[Key][]byte)}
	if dir != "" {
		c.dir = filepath.Join(dir, "cache")
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: cache dir: %w", err)
		}
	}
	return c, nil
}

// Get returns the payload stored under k. Disk hits are promoted into
// the memory tier.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	v, ok := c.mem[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return v, true
	}
	if c.dir != "" {
		if b, err := os.ReadFile(filepath.Join(c.dir, k.String())); err == nil {
			c.mu.Lock()
			c.mem[k] = b
			c.mu.Unlock()
			c.hits.Add(1)
			return b, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores the payload under k in memory and, when the cache is
// disk-backed, atomically on disk. The caller must not mutate v after
// the call.
func (c *Cache) Put(k Key, v []byte) error {
	c.mu.Lock()
	c.mem[k] = v
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	return fsutil.WriteFileAtomic(filepath.Join(c.dir, k.String()), v, 0o644)
}

// Stats reports cumulative lookup hits and misses.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// HitRate is hits/(hits+misses), or 0 before the first lookup.
func (c *Cache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len reports how many payloads the memory tier holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}
