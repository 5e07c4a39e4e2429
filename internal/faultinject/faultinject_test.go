package faultinject

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestDeterministic: two injectors with the same config make identical
// decisions for every (site, key) pair, and a different seed changes at
// least one decision over a reasonable key set.
func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.3}
	a, b := New(cfg), New(cfg)
	diffSeed := New(Config{Seed: 43, Rate: 0.3})
	sites := []string{"cache.read", "pipeline.parse", "vcs.open"}
	changed := false
	for _, site := range sites {
		for i := 0; i < 200; i++ {
			key := site + "-key-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			ka, kb := a.At(site, key), b.At(site, key)
			if ka != kb {
				t.Fatalf("same seed diverged at %s/%s: %v vs %v", site, key, ka, kb)
			}
			if ka != diffSeed.At(site, key) {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("changing the seed changed no decision over 600 keys")
	}
}

// TestRate: rate 0 and nil injectors never fire; rate 1 always fires.
func TestRate(t *testing.T) {
	var nilInj *Injector
	if k := nilInj.At("s", "k"); k != KindNone {
		t.Errorf("nil injector fired %v", k)
	}
	inert := New(Config{Seed: 1})
	always := New(Config{Seed: 1, Rate: 1})
	fired := 0
	for i := 0; i < 100; i++ {
		key := string(rune('a' + i%26))
		if inert.At("s", key) != KindNone {
			t.Fatal("rate-0 injector fired")
		}
		if always.At("s", key) != KindNone {
			fired++
		}
	}
	if fired != 100 {
		t.Errorf("rate-1 injector fired %d/100", fired)
	}
}

// TestSiteAndKindFilters: only configured sites fault, and only
// configured kinds are drawn.
func TestSiteAndKindFilters(t *testing.T) {
	in := New(Config{Seed: 7, Rate: 1, Sites: []string{"cache.read"}, Kinds: []Kind{KindErr}})
	for i := 0; i < 50; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if k := in.At("pipeline.parse", key); k != KindNone {
			t.Fatalf("unlisted site fired %v", k)
		}
		if k := in.At("cache.read", key); k != KindErr {
			t.Fatalf("got kind %v, want only io-error", k)
		}
	}
	f := in.Fired()
	if f["cache.read/io-error"] != 50 || len(f) != 1 {
		t.Errorf("fired counters = %v, want cache.read/io-error×50 only", f)
	}
}

// TestMangle: deterministic, always changes non-empty data, nil-safe.
func TestMangle(t *testing.T) {
	in := New(Config{Seed: 5, Rate: 1})
	orig := []byte("the quick brown fox jumps over the lazy dog")
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	in.Mangle(a, "k1")
	in.Mangle(b, "k1")
	if bytes.Equal(a, orig) {
		t.Error("Mangle changed nothing")
	}
	if !bytes.Equal(a, b) {
		t.Error("Mangle is not deterministic")
	}
	one := []byte{0x00}
	in.Mangle(one, "k2")
	if one[0] == 0x00 {
		t.Error("Mangle left a 1-byte buffer unchanged")
	}
	var nilInj *Injector
	c := append([]byte(nil), orig...)
	nilInj.Mangle(c, "k1")
	if !bytes.Equal(c, orig) {
		t.Error("nil injector mangled data")
	}
	in.Mangle(nil, "k")
}

// TestSleepRespectsContext: a cancelled context cuts the stall short.
func TestSleepRespectsContext(t *testing.T) {
	in := New(Config{Seed: 1, Rate: 1, Delay: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	in.Sleep(ctx)
	if d := time.Since(start); d > time.Second {
		t.Errorf("Sleep ignored cancellation (%v)", d)
	}
	var nilInj *Injector
	nilInj.Sleep(context.Background())
}

// TestSummary renders fired counters stably.
func TestSummary(t *testing.T) {
	in := New(Config{Seed: 3, Rate: 1, Kinds: []Kind{KindDelay}})
	if got := in.Summary(); got != "no faults injected" {
		t.Errorf("fresh injector summary = %q", got)
	}
	in.At("s", "k")
	if got := in.Summary(); got != "s/delay×1" {
		t.Errorf("summary = %q, want s/delay×1", got)
	}
}
