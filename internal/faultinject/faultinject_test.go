package faultinject

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"mono",
		"mono:panic",
		"mono:frob:0",
		"mono:panic:-1",
		"mono:panic:x",
		":panic:0",
		"norm:delay:0:abc",
		"norm:delay:0:-5",
		"mono:panic:0:1:2",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestParseEmptyDisables(t *testing.T) {
	r, err := Parse("  ")
	if err != nil || r != nil {
		t.Fatalf("Parse(blank) = %v, %v; want nil, nil", r, err)
	}
}

func TestErrFiresExactlyOnceAtNth(t *testing.T) {
	r, err := Parse("lower:err:2")
	if err != nil {
		t.Fatal(err)
	}
	defer Set(r)()
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		err := Point(ctx, "lower")
		if (i == 2) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		if i == 2 && !errors.Is(err, ErrInjected) {
			t.Fatalf("want ErrInjected, got %v", err)
		}
	}
	if err := Point(ctx, "other"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	r, err := Parse("mono:panic:0")
	if err != nil {
		t.Fatal(err)
	}
	defer Set(r)()
	defer func() {
		rec := recover()
		if rec == nil || !strings.Contains(rec.(string), "injected panic at mono") {
			t.Fatalf("recover() = %v", rec)
		}
	}()
	Point(context.Background(), "mono")
	t.Fatal("Point did not panic")
}

func TestDelayIsContextAware(t *testing.T) {
	r, err := Parse("norm:delay:0:10000")
	if err != nil {
		t.Fatal(err)
	}
	defer Set(r)()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	perr := Point(ctx, "norm")
	if !errors.Is(perr, context.Canceled) {
		t.Fatalf("Point = %v, want context.Canceled", perr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled delay took %v", elapsed)
	}
}

func TestConcurrentHitsFireOnce(t *testing.T) {
	r, err := Parse("interp:err:25")
	if err != nil {
		t.Fatal(err)
	}
	defer Set(r)()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if Point(context.Background(), "interp") != nil {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if fired.Load() != 1 {
		t.Fatalf("fault fired %d times, want exactly 1", fired.Load())
	}
}

func TestEveryFiresFromNthOnward(t *testing.T) {
	r, err := Parse("peer-dial:err:2+")
	if err != nil {
		t.Fatal(err)
	}
	defer Set(r)()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		err := Point(ctx, "peer-dial")
		if (i >= 2) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: want ErrInjected, got %v", i, err)
		}
	}
}

func TestEveryParse(t *testing.T) {
	r, err := Parse("peer-stall:delay:0+:5")
	if err != nil {
		t.Fatal(err)
	}
	f := r.faults[0]
	if !f.Every || f.Nth != 0 || f.Delay != 5*time.Millisecond {
		t.Fatalf("parsed fault = %+v", f)
	}
	for _, spec := range []string{"p:err:+", "p:err:-1+", "p:err:1++"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestSetRestores(t *testing.T) {
	if Enabled() {
		t.Skip("VIRGIL_FAULT set in the environment")
	}
	r, _ := Parse("x:err:0")
	restore := Set(r)
	if !Enabled() {
		t.Fatal("Set did not enable")
	}
	restore()
	if Enabled() {
		t.Fatal("restore did not disable")
	}
}

func TestPoints(t *testing.T) {
	r, err := Parse("a:err:0,b:delay:1,a:panic:2")
	if err != nil {
		t.Fatal(err)
	}
	got := r.Points()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Points() = %v", got)
	}
}
