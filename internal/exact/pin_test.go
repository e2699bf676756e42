package exact

import (
	"context"
	"fmt"
	"math"
	"testing"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/match"
)

// soloPin is everything a single-threaded search run reports about its
// trajectory: the score's bits and the counters that change when the DFS
// visits different nodes or visits them in a different order.
type soloPin struct {
	score        uint64
	nodes        int64
	prunes       int64
	improvements int64
	exhaustive   bool
	attempts     int64
}

func (p soloPin) String() string {
	return fmt.Sprintf("{%#x, %d, %d, %d, %v, %d}", p.score, p.nodes, p.prunes, p.improvements, p.exhaustive, p.attempts)
}

// TestSoloSearchPinned pins the search node for node. A score column never
// moves; a counter moves only with a change to what the search visits, and
// CHANGES.md lists every edited row with its old and new values. The
// left-injective rows without NoWarmStart walk cold, so they carry their
// cold twins' counters; the stopped ones add the fallback warm start's
// pair attempts. The budget-capped cases stop mid-search, so they pin the
// DFS order and not only the optimum. The last three cases are the benchmark's two certified
// exact shapes: Doct 500 1-to-1 at 5000 nodes, and Doct 100 n-to-m at 16
// nodes on its first seed (which trips the budget) and on the first seed
// that certifies.
func TestSoloSearchPinned(t *testing.T) {
	table2 := generator.Noise{CellPct: 0.05, NullReuse: 0.3}
	exactNoise := generator.Noise{CellPct: 0.05, RandomPct: 0.1, RedundantPct: 0.1}
	noisy3 := generator.Noise{CellPct: 0.3, NullShare: 0.8, NullReuse: 0.3, RedundantPct: 0.2}
	noisy5 := generator.Noise{CellPct: 0.5, NullShare: 0.8, NullReuse: 0.3, RedundantPct: 0.2}
	one, fun, gen := match.OneToOne, match.Functional, match.ManyToMany
	cases := []struct {
		ds       datasets.Name
		rows     int
		noise    generator.Noise
		seed     int64
		mode     match.Mode
		maxNodes int64
		cold     bool
		want     soloPin
	}{
		{datasets.Doct, 12, noisy5, 7, one, 0, false, soloPin{0x3fc8af8af8af8af9, 304, 62, 3, true, 253}},
		{datasets.Doct, 12, noisy5, 7, one, 0, true, soloPin{0x3fc8af8af8af8af9, 304, 62, 3, true, 253}},
		{datasets.Doct, 12, noisy5, 7, fun, 0, false, soloPin{0x3fcbe2be2be2be2c, 357, 67, 3, true, 288}},
		{datasets.Doct, 12, noisy5, 7, fun, 0, true, soloPin{0x3fcbe2be2be2be2c, 357, 67, 3, true, 288}},
		{datasets.Doct, 12, noisy5, 7, gen, 0, false, soloPin{0x3fcf15f15f15f15f, 306, 55, 3, true, 261}},
		{datasets.Doct, 12, noisy5, 7, gen, 0, true, soloPin{0x3fcf15f15f15f15f, 306, 55, 3, true, 238}},
		{datasets.Bike, 30, noisy3, 7, one, 0, false, soloPin{0x3fca4df5770b96a8, 4071, 708, 1, true, 1437}},
		{datasets.Bike, 30, noisy3, 7, one, 0, true, soloPin{0x3fca4df5770b96a8, 4071, 708, 1, true, 1437}},
		{datasets.Bike, 30, noisy3, 7, fun, 0, false, soloPin{0x3fcf4acc60ebfbca, 2302, 398, 1, true, 741}},
		{datasets.Bike, 30, noisy3, 7, fun, 0, true, soloPin{0x3fcf4acc60ebfbca, 2302, 398, 1, true, 741}},
		{datasets.Bike, 30, noisy3, 7, gen, 0, false, soloPin{0x3fd0522c3f35ba78, 233, 49, 0, true, 176}},
		{datasets.Bike, 30, noisy3, 7, gen, 0, true, soloPin{0x3fd0522c3f35ba78, 233, 49, 1, true, 131}},
		{datasets.Bike, 30, noisy5, 7, one, 0, false, soloPin{0x3fc99cf8a021b641, 8608, 2319, 1, true, 4312}},
		{datasets.Bike, 30, noisy5, 7, one, 0, true, soloPin{0x3fc99cf8a021b641, 8608, 2319, 1, true, 4312}},
		{datasets.Bike, 30, noisy5, 7, fun, 0, false, soloPin{0x3fcd2b3183afef24, 10295, 2203, 1, true, 2845}},
		{datasets.Bike, 30, noisy5, 7, fun, 0, true, soloPin{0x3fcd2b3183afef24, 10295, 2203, 1, true, 2845}},
		{datasets.Bike, 30, noisy5, 7, gen, 0, false, soloPin{0x3fd148b0fcd6e9e0, 10417, 2063, 0, true, 5761}},
		{datasets.Bike, 30, noisy5, 7, gen, 0, true, soloPin{0x3fd148b0fcd6e9e0, 10417, 2063, 1, true, 5711}},
		{datasets.Doct, 30, noisy3, 7, one, 20000, false, soloPin{0x3fdceb240795ceb3, 20001, 6527, 1, false, 14881}},
		{datasets.Doct, 30, noisy3, 7, one, 20000, true, soloPin{0x3fdb7f0d4629b7f2, 20001, 6527, 1, false, 14828}},
		{datasets.Doct, 30, noisy3, 7, fun, 20000, false, soloPin{0x3fdd4629b7f0d464, 20001, 4605, 3, false, 14521}},
		{datasets.Doct, 30, noisy3, 7, fun, 20000, true, soloPin{0x3fdd4629b7f0d464, 20001, 4605, 3, false, 14450}},
		{datasets.Doct, 30, noisy3, 7, gen, 20000, false, soloPin{0x3fe0b9d6480f2b9e, 20001, 85, 0, false, 14032}},
		{datasets.Doct, 30, noisy3, 7, gen, 20000, true, soloPin{0x3fe00795ceb2407a, 20001, 17, 1, false, 13876}},
		{datasets.Doct, 30, noisy5, 7, one, 20000, false, soloPin{0x3fda40795ceb2407, 20001, 5587, 4, false, 24872}},
		{datasets.Doct, 30, noisy5, 7, one, 20000, true, soloPin{0x3fda40795ceb2407, 20001, 5587, 4, false, 24804}},
		{datasets.Doct, 30, noisy5, 7, fun, 20000, false, soloPin{0x3fd94c3b2a1907f6, 20001, 2846, 5, false, 18965}},
		{datasets.Doct, 30, noisy5, 7, fun, 20000, true, soloPin{0x3fd94c3b2a1907f6, 20001, 2846, 5, false, 18876}},
		{datasets.Doct, 30, noisy5, 7, gen, 20000, false, soloPin{0x3fd873ac901e573c, 20001, 0, 3, false, 17878}},
		{datasets.Doct, 30, noisy5, 7, gen, 20000, true, soloPin{0x3fd873ac901e573c, 20001, 0, 5, false, 17688}},
		{datasets.Bike, 30, noisy5, 7, one, 3000, true, soloPin{0x3fc99cf8a021b641, 3001, 748, 1, false, 1557}},
		{datasets.Doct, 30, noisy5, 7, one, 37, false, soloPin{0x3fda314dbf86a314, 38, 0, 1, false, 200}},
		{datasets.Bike, 30, noisy5, 7, fun, 3000, true, soloPin{0x3fcd2b3183afef24, 3001, 536, 1, false, 775}},
		{datasets.Doct, 30, noisy5, 7, fun, 37, false, soloPin{0x3fd9401845c8a0ce, 38, 0, 1, false, 223}},
		{datasets.Bike, 30, noisy5, 7, gen, 3000, true, soloPin{0x3fd148b0fcd6e9e0, 3001, 430, 1, false, 1633}},
		{datasets.Doct, 30, noisy5, 7, gen, 37, false, soloPin{0x3fd7da12f684bda2, 38, 0, 0, false, 250}},
		{datasets.Doct, 100, table2, 6, one, 2000, true, soloPin{0x3fe75c28f5c28f5c, 176, 75, 1, true, 150}},
		{datasets.Doct, 100, table2, 6, fun, 2000, true, soloPin{0x3fe75c28f5c28f5c, 176, 75, 1, true, 150}},
		{datasets.Doct, 100, exactNoise, 6, gen, 2000, true, soloPin{0x3fe57970fa7fc9d7, 2001, 0, 1, false, 1135}},
		{datasets.Doct, 500, table2, 101, one, 5000, false, soloPin{0x3fe8d844d013a929, 900, 398, 1, true, 798}},
		{datasets.Doct, 100, exactNoise, 102, gen, 16, false, soloPin{0x3fe59fce59fce5a0, 17, 0, 0, false, 616}},
		{datasets.Doct, 100, exactNoise, 15940, gen, 16, false, soloPin{0x3fe67ab5f34e47ef, 1, 1, 0, true, 616}},
	}
	for i, tc := range cases {
		base, err := datasets.Generate(tc.ds, tc.rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		noise := tc.noise
		noise.Seed = tc.seed
		sc := generator.Make(base, noise)
		res, err := Run(context.Background(), sc.Source, sc.Target, tc.mode,
			Options{Lambda: lambda, MaxNodes: tc.maxNodes, NoWarmStart: tc.cold})
		if err != nil {
			t.Fatal(err)
		}
		got := soloPin{math.Float64bits(res.Score), res.Nodes, res.Prunes, res.Improvements, res.Exhaustive, res.EnvStats.PairAttempts}
		if got != tc.want {
			t.Errorf("case %d (%s %d rows, mode %+v, max %d, cold %v): got %v, want %v",
				i, tc.ds, tc.rows, tc.mode, tc.maxNodes, tc.cold, got, tc.want)
		}
	}
}
