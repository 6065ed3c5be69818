package kvstore

import (
	"context"
	"fmt"
)

// Membership changes. The paper highlights that with a Cassandra-style
// ring "adding and removing nodes to the cluster is a seamless
// operation"; this file implements that for the coordinator: membership
// updates adjust the consistent-hash ring, and Rebalance re-replicates
// every key to its current replica set so placement invariants hold again
// after churn.

// AddMember joins a new storage node to the ring. Keys are not moved
// until Rebalance (or an anti-entropy round) runs; until then a lookup
// routed to the new node misses, which costs the agent one redundant
// upload, never a wrong answer.
func (c *Cluster) AddMember(addr string) error {
	if addr == "" {
		return fmt.Errorf("%w: empty member address", ErrConfig)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.cfg.Members {
		if m == addr {
			return fmt.Errorf("%w: member %q already present", ErrConfig, addr)
		}
	}
	c.cfg.Members = append(c.cfg.Members, addr)
	c.ring.Add(addr)
	return nil
}

// RemoveMember leaves a node out of the ring (e.g. decommissioning).
// Keys it exclusively held remain reachable only if replication placed
// copies elsewhere; run Rebalance afterwards to restore full replication.
func (c *Cluster) RemoveMember(addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	found := -1
	for i, m := range c.cfg.Members {
		if m == addr {
			found = i
			break
		}
	}
	if found < 0 {
		return fmt.Errorf("%w: member %q not found", ErrConfig, addr)
	}
	if len(c.cfg.Members) == 1 {
		return fmt.Errorf("%w: cannot remove the last member", ErrConfig)
	}
	c.cfg.Members = append(c.cfg.Members[:found], c.cfg.Members[found+1:]...)
	c.ring.Remove(addr)
	if cl, ok := c.clients[addr]; ok {
		delete(c.clients, addr)
		go cl.Close()
	}
	delete(c.down, addr)
	if c.cfg.LocalAddr == addr {
		c.cfg.LocalAddr = ""
	}
	return nil
}

// Rebalance scans every reachable member and re-replicates each key's
// newest entry to its current replica set, restoring placement after
// membership changes. Entries keep their versions, so last-write-wins
// semantics are preserved and re-running Rebalance is idempotent. The
// writes go out as one kv.batchput per replica node.
func (c *Cluster) Rebalance(ctx context.Context) error {
	newest := make(map[string]Entry)
	for _, addr := range c.Members() {
		resp, err := c.call(ctx, addr, methodScan, nil)
		if err != nil {
			// An unreachable member's data is covered by its replicas'
			// scans; skip it.
			continue
		}
		recs, err := decodeRecords(resp)
		if err != nil {
			return fmt.Errorf("kvstore: rebalance scan %s: %w", addr, err)
		}
		for _, r := range recs {
			if old, ok := newest[string(r.key)]; !ok || r.e.Version > old.Version {
				newest[string(r.key)] = r.e
			}
		}
	}
	recs := make([]record, 0, len(newest))
	for k, e := range newest {
		recs = append(recs, record{key: []byte(k), e: e})
	}
	if err := c.putRecords(ctx, recs); err != nil {
		return fmt.Errorf("kvstore: rebalance: %w", err)
	}
	return nil
}
