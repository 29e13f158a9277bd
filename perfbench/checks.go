package main

import (
	"fmt"

	"gccache/internal/autotune"
	"gccache/internal/cachesim"
	"gccache/internal/cluster"
)

// checkIdentities verifies the accounting identities of a recorder's
// statistics: every access is a hit or a miss, and every hit is
// classified as exactly one of spatial or temporal.
func checkIdentities(st cachesim.Stats) error {
	if st.Hits+st.Misses != st.Accesses {
		return fmt.Errorf("hits %d + misses %d != accesses %d", st.Hits, st.Misses, st.Accesses)
	}
	if st.SpatialHits+st.TemporalHits != st.Hits {
		return fmt.Errorf("spatial %d + temporal %d != hits %d", st.SpatialHits, st.TemporalHits, st.Hits)
	}
	return nil
}

// checkSame verifies that a replay reproduced the reference statistics
// computed during set-up on the same input.
func checkSame(got, want cachesim.Stats) error {
	if err := checkIdentities(got); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("stats %+v differ from the reference %+v", got, want)
	}
	return nil
}

// checkEngine verifies the engine's accounting: the cache counted
// exactly the requests issued in the timed window plus the warmup round
// (the identity gcload's selfcheck pins).
func checkEngine(st cachesim.Stats, issued, warmup int64) error {
	if err := checkIdentities(st); err != nil {
		return err
	}
	if st.Accesses != issued+warmup {
		return fmt.Errorf("cache counted %d accesses, want issued %d + warmup %d", st.Accesses, issued, warmup)
	}
	return nil
}

// checkCluster verifies the cluster's accounting: the client identity
// (issued = first-try + retried-ok + rejected), no acked batch short of
// its items, and the nodes, summed over the ring, served exactly the
// items the client saw acked. Nodes count hits and misses but do not
// classify hits as spatial or temporal, so only the first recorder
// identity applies to them.
func checkCluster(cs cluster.ClientStats, nodes cachesim.Stats, acked int64) error {
	if !cs.Identity() {
		return fmt.Errorf("client identity broken: issued %d != first-try %d + retried %d + rejected %d",
			cs.Issued, cs.ServedFirstTry, cs.RetriedOK, cs.Rejected)
	}
	if cs.AckMismatches != 0 {
		return fmt.Errorf("%d acked batches were not fully served", cs.AckMismatches)
	}
	if nodes.Hits+nodes.Misses != nodes.Accesses {
		return fmt.Errorf("node hits %d + misses %d != accesses %d", nodes.Hits, nodes.Misses, nodes.Accesses)
	}
	if nodes.Accesses != acked {
		return fmt.Errorf("nodes served %d accesses, client saw %d acked", nodes.Accesses, acked)
	}
	if cs.Hits+cs.Misses != acked {
		return fmt.Errorf("acks report %d hits + %d misses, want %d acked items", cs.Hits, cs.Misses, acked)
	}
	return nil
}

// checkTuner verifies that a node's tuner observed every access the
// node served, exactly once, and none outside its universe.
func checkTuner(st autotune.State, served int64) error {
	if st.Requests != served || st.Skipped != 0 {
		return fmt.Errorf("tuner observed %d requests (%d skipped), node served %d", st.Requests, st.Skipped, served)
	}
	return nil
}
