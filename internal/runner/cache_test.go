package runner

import (
	"os"
	"path/filepath"
	"testing"

	"rmscale/internal/fsutil"
)

type keyCfg struct {
	Name string
	N    int
	F    float64
}

func TestKeyOfDeterministic(t *testing.T) {
	a, err := KeyOf("v1", keyCfg{Name: "x", N: 3, F: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KeyOf("v1", keyCfg{Name: "x", N: 3, F: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical inputs hash to different keys")
	}
	c, _ := KeyOf("v1", keyCfg{Name: "x", N: 4, F: 0.25})
	if a == c {
		t.Fatal("different inputs collide")
	}
	d, _ := KeyOf("v2", keyCfg{Name: "x", N: 3, F: 0.25})
	if a == d {
		t.Fatal("version strings do not separate cache generations")
	}
}

func TestCacheMemoryTier(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyOf("t", 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	if err := c.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(k)
	if !ok || string(v) != "payload" {
		t.Fatalf("got %q, %v", v, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
	if r := c.HitRate(); r != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", r)
	}
}

func TestCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyOf("t", "persist")
	if err := c1.Put(k, []byte("durable")); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory is a cold memory tier but a
	// warm disk tier.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c2.Get(k)
	if !ok || string(v) != "durable" {
		t.Fatalf("disk tier miss: %q, %v", v, ok)
	}
	if c2.Len() != 1 {
		t.Fatalf("disk hit not promoted to memory: len=%d", c2.Len())
	}
}

func TestCacheDiskFilesAreContentAddressed(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyOf("t", "addr")
	if err := c.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cache", k.String())); err != nil {
		t.Fatalf("cache file not at content address: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := fsutil.WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsutil.WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "two" {
		t.Fatalf("got %q, %v", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}
