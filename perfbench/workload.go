package main

import (
	"math"

	"sheriff/internal/store"
)

// workload is one input set. Every workload runs the same pipeline — the
// paper's study in miniature: crowd checks over the SDK, a crawl of the
// 21 crawled retailers with the anchors the checks taught, then the
// operator's archive operations on the dataset — and the workloads differ
// in how much of each phase they carry, so each stresses other layers.
type workload struct {
	name string
	// share is the fraction of checks aimed at the 30 popular retailers;
	// the rest walk the long tail.
	share float64
	// perRound is how many checks share one simulated instant; the clock
	// moves a day at each round barrier.
	perRound int
	// rate is the nominal check rate that sizes the crowd phase from
	// --seconds: the check count is fixed by the inputs, never by how fast
	// the program runs, so a faster check path does not grow the dataset
	// the archive phase times.
	rate float64
	// fixedChecks, when set, is the crowd phase's size whatever --seconds.
	fixedChecks int
	// hotProducts, when set, narrows each popular retailer to the first
	// hotProducts products of its catalog: the crowd's bestsellers, so
	// many checks of one instant name the same product.
	hotProducts int
	// users is the crowd: distinct simulated people (location, address,
	// browser) the checks are drawn from.
	users    int
	longTail int
	fsync    store.FsyncPolicy
	// crawlProducts and crawlRounds size the crawl of the 21 retailers.
	crawlProducts, crawlRounds int
	// setups is how often set-up is timed in a run, reps how many archive
	// rounds (restart, checkpoint, export, catch-up) run; the medians are
	// reported.
	setups, reps int
}

// defaultWorldSeed builds the simulated world — retailer catalogs, page
// layouts, prices, FX fixings — on every run, whatever --seed. Worlds of
// different seeds differ in how heavy their retailers' pages are, and
// crawl-archive's CPU time per check moved 25 % between two seeds' worlds
// (repeatably), which a seed-to-seed spread would charge to the program.
// The seed varies the traffic over that world instead.
const defaultWorldSeed = 1

var workloads = []workload{
	{
		name: "crowd-paper", share: 0.45, perRound: 100, rate: 400,
		users: 340, longTail: 580, fsync: store.FsyncAlways,
		crawlProducts: 60, crawlRounds: 2, setups: 7, reps: 3,
	},
	{
		name: "crowd-hot", share: 1.0, perRound: 1000, rate: 500, hotProducts: 8,
		users: 340, longTail: 580, fsync: store.FsyncInterval,
		crawlProducts: 60, crawlRounds: 2, setups: 7, reps: 3,
	},
	{
		name: "crawl-archive", share: 0.45, perRound: 100, fixedChecks: 1500,
		users: 340, longTail: 580, fsync: store.FsyncInterval,
		crawlProducts: 50, crawlRounds: 7, setups: 7, reps: 3,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// small shrinks a workload so the whole pipeline runs in a second or two;
// the tests use it.
func (w workload) small() workload {
	w.perRound = min(w.perRound, 40)
	w.rate = 8
	if w.fixedChecks > 0 {
		w.fixedChecks = 60
	}
	w.users = 20
	w.longTail = 12
	w.crawlProducts = min(w.crawlProducts, 3)
	w.crawlRounds = min(w.crawlRounds, 2)
	w.setups, w.reps = 1, 2
	return w
}

// checkCount is the crowd phase's size: whole rounds only.
func (w workload) checkCount(seconds int) int {
	n := w.fixedChecks
	if n == 0 {
		n = int(math.Ceil(float64(seconds) * w.rate))
	}
	rounds := (n + w.perRound - 1) / w.perRound
	return rounds * w.perRound
}
