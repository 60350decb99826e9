package membership

import (
	"math"
	"math/rand"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/graph"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

func testNet(e *sim.Engine, n int) *netstack.Network {
	return netstack.New(e, netstack.Config{
		N: n, Stack: netstack.StackIdeal, Neighbors: netstack.NeighborsOracle,
	})
}

func TestDefaultViewSize(t *testing.T) {
	if got := DefaultViewSize(800); got != 57 { // ceil(2*28.28)
		t.Fatalf("DefaultViewSize(800) = %d, want 57", got)
	}
	if got := DefaultViewSize(1); got < 1 {
		t.Fatalf("DefaultViewSize(1) = %d", got)
	}
}

func TestOracleViews(t *testing.T) {
	e := sim.NewEngine(1)
	net := testNet(e, 100)
	s := New(net, Config{})
	for id := 0; id < 100; id++ {
		view := s.View(id)
		if len(view) != DefaultViewSize(100) {
			t.Fatalf("view size = %d, want %d", len(view), DefaultViewSize(100))
		}
		seen := map[int]bool{}
		for _, v := range view {
			if v == id {
				t.Fatalf("node %d in its own view", id)
			}
			if seen[v] {
				t.Fatalf("duplicate %d in view of %d", v, id)
			}
			seen[v] = true
		}
	}
}

func TestViewUniformity(t *testing.T) {
	e := sim.NewEngine(2)
	net := testNet(e, 50)
	s := New(net, Config{ViewSize: 10, RefreshSecs: 1})
	counts := make([]int, 50)
	// Accumulate over many refreshes.
	for r := 0; r < 200; r++ {
		e.Run(e.Now() + 1)
		for _, v := range s.View(0) {
			counts[v]++
		}
	}
	// Node 0 never appears; others should appear with comparable rates.
	if counts[0] != 0 {
		t.Fatal("self in view")
	}
	exp := 200.0 * 10 / 49
	for v := 1; v < 50; v++ {
		if float64(counts[v]) < exp/3 || float64(counts[v]) > exp*3 {
			t.Fatalf("node %d appeared %d times (expected ≈%.0f)", v, counts[v], exp)
		}
	}
}

func TestPick(t *testing.T) {
	e := sim.NewEngine(3)
	net := testNet(e, 100)
	s := New(net, Config{ViewSize: 20})
	rng := rand.New(rand.NewSource(9))
	got := s.Pick(rng, 5, 8)
	if len(got) != 8 {
		t.Fatalf("Pick returned %d ids", len(got))
	}
	seen := map[int]bool{}
	inView := map[int]bool{}
	for _, v := range s.View(5) {
		inView[v] = true
	}
	for _, v := range got {
		if seen[v] {
			t.Fatal("Pick returned duplicates")
		}
		seen[v] = true
		if !inView[v] {
			t.Fatal("Pick returned id outside the view")
		}
	}
	// Requesting more than the view yields the full view (paper's cost
	// plateau at |Q| ≥ 2√n).
	all := s.Pick(rng, 5, 100)
	if len(all) != 20 {
		t.Fatalf("oversized Pick returned %d ids, want 20", len(all))
	}
}

func TestViewsAgeUnderChurnThenRecover(t *testing.T) {
	e := sim.NewEngine(4)
	net := testNet(e, 60)
	s := New(net, Config{ViewSize: 15, RefreshSecs: 10})
	// Kill a third of the network.
	for id := 0; id < 20; id++ {
		net.Fail(id)
	}
	// Immediately after the failures (before refresh) views may contain
	// dead ids — they are stale on purpose.
	stale := 0
	for _, v := range s.View(30) {
		if !net.Alive(v) {
			stale++
		}
	}
	if stale == 0 {
		t.Skip("statistically possible but unlikely; view had no dead ids")
	}
	// After a refresh cycle, views must contain only live nodes.
	e.Run(e.Now() + 11)
	for id := 20; id < 60; id++ {
		for _, v := range s.View(id) {
			if !net.Alive(v) {
				t.Fatalf("view of %d still holds dead node %d after refresh", id, v)
			}
		}
	}
	// Dead nodes' views are cleared.
	if len(s.View(5)) != 0 {
		t.Fatal("dead node retains a view")
	}
}

func TestRandomWalkMode(t *testing.T) {
	e := sim.NewEngine(5)
	net := testNet(e, 80)
	s := New(net, Config{ViewSize: 10, Mode: ModeRandomWalk, WalkLength: 40})
	nonEmpty := 0
	for id := 0; id < 80; id++ {
		view := s.View(id)
		seen := map[int]bool{}
		for _, v := range view {
			if v == id || seen[v] {
				t.Fatal("RW view invalid")
			}
			seen[v] = true
		}
		if len(view) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 60 {
		t.Fatalf("only %d/80 RW views non-empty", nonEmpty)
	}
}

func TestEstimateN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 200
	side := geom.AreaSide(n, 200, 12)
	g, _ := graph.NewRGG(rng, n, 200, side, geom.Torus{Side: side})
	if !g.Connected() {
		t.Skip("rare disconnected instance")
	}
	est, collisions := EstimateN(g, rng, 0, 120, n)
	if collisions == 0 {
		t.Fatal("no collisions with k ≫ √n walks")
	}
	if est < float64(n)/3 || est > float64(n)*3 {
		t.Fatalf("EstimateN = %.0f, want within 3x of %d", est, n)
	}
	if math.IsInf(est, 1) {
		t.Fatal("estimate infinite despite collisions")
	}
}

// TestViewsRightSized is the regression guard for eager views pinning an
// n-sized backing array: every stored view, eager or lazy, must hold
// exactly its own entries.
func TestViewsRightSized(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		e := sim.NewEngine(3)
		net := testNet(e, 200)
		s := New(net, Config{Lazy: lazy})
		s.RefreshNode(7)
		s.RefreshAll()
		for id := 0; id < 200; id++ {
			if v := s.View(id); cap(v) != len(v) {
				t.Fatalf("lazy=%v: view of %d has len %d but cap %d", lazy, id, len(v), cap(v))
			}
		}
	}
}

// TestSampleDistinctDraws pins the eager draw to the allocate-per-call
// shuffle it replaced: the same RNG calls, hence the same views.
func TestSampleDistinctDraws(t *testing.T) {
	ref := func(rng *rand.Rand, pool []int, exclude, k int) []int {
		candidates := make([]int, 0, len(pool))
		for _, v := range pool {
			if v != exclude {
				candidates = append(candidates, v)
			}
		}
		if k > len(candidates) {
			k = len(candidates)
		}
		for i := 0; i < k; i++ {
			j := i + rng.Intn(len(candidates)-i)
			candidates[i], candidates[j] = candidates[j], candidates[i]
		}
		return candidates[:k]
	}
	pool := make([]int, 60)
	for i := range pool {
		pool[i] = 3 * i
	}
	s := &Service{rng: rand.New(rand.NewSource(11))}
	want := rand.New(rand.NewSource(11))
	for call := 0; call < 50; call++ {
		exclude, k := pool[call%len(pool)], 1+call%70
		got, exp := s.sampleDistinct(nil, s.rng, pool, exclude, k), ref(want, pool, exclude, k)
		if len(got) != len(exp) {
			t.Fatalf("call %d: %d ids, want %d", call, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("call %d: draw %v, want %v", call, got, exp)
			}
		}
	}
}
