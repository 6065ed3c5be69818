package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/cloudstore"
	"efdedup/internal/cluster"
	"efdedup/internal/kvstore"
	"efdedup/internal/netem"
	"efdedup/internal/transport"
)

// gamma is the index replication factor γ of every ring (the paper's
// setting).
const gamma = 2

const cloudAddr = "cloud"

// deployConfig lays out one agent → kvstore → cloudstore stack.
type deployConfig struct {
	// sites places kv node i at sites[i]. Distinct sites are joined by
	// netem links (cluster.DefaultEdgeLink between edge sites,
	// cluster.DefaultWANLink to the cloud); a single site means one
	// unshaped memory network.
	sites []string
	// agentsAt lists the kv node that hosts each agent; an agent's index
	// client prefers its own node for lookups.
	agentsAt []int
	// dir, when set, makes both stores durable: kv WALs at the default
	// SyncInterval group commit, and a cloud Dir.
	dir            string
	containerBytes int
	tr             *Tracer
}

func (c deployConfig) shaped() bool {
	for _, s := range c.sites {
		if s != c.sites[0] {
			return true
		}
	}
	return false
}

// deployment is one running stack. Every conn is dialed or accepted
// through netFor, which is where a traced run wraps them.
type deployment struct {
	cfg     deployConfig
	inner   *transport.MemNetwork
	topo    *netem.Topology // nil when unshaped
	cloud   *cloudstore.Server
	nodes   []*kvstore.Node
	kvAddrs []string
	indexes []*kvstore.Cluster
	clients []*cloudstore.Client
	agents  []*agent.Agent
	// openTime is how long opening the stores took: WAL and snapshot
	// replay for the kv nodes, index rebuild for the cloud.
	openTime time.Duration
}

func (d *deployment) netFor(site string) network {
	if d.topo == nil {
		return traced(d.inner, d.cfg.tr)
	}
	return traced(d.topo.NetworkFor(site, d.inner), d.cfg.tr)
}

func (d *deployment) walPath(i int) string {
	return filepath.Join(d.cfg.dir, fmt.Sprintf("kv-%d.wal", i))
}

// deploy starts a stack, reopening whatever cfg.dir already holds.
func deploy(cfg deployConfig) (*deployment, error) {
	d := &deployment{cfg: cfg, inner: transport.NewMemNetwork()}
	if cfg.shaped() {
		d.topo = netem.NewTopology(cluster.DefaultEdgeLink)
		for _, s := range cfg.sites {
			d.topo.SetSymmetricLink(s, cluster.CloudSite, cluster.DefaultWANLink)
		}
	}
	if err := d.start(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) start() error {
	cloudCfg := cloudstore.Config{ContainerBytes: d.cfg.containerBytes}
	if d.cfg.dir != "" {
		cloudCfg.Dir = filepath.Join(d.cfg.dir, "cloud")
	}
	t0 := time.Now()
	srv, err := cloudstore.NewServer(cloudCfg)
	d.openTime += time.Since(t0)
	if err != nil {
		return err
	}
	d.cloud = srv
	l, err := d.netFor(cluster.CloudSite).Listen(cloudAddr)
	if err != nil {
		return err
	}
	srv.Serve(l)

	for i, site := range d.cfg.sites {
		nc := kvstore.NodeConfig{}
		if d.cfg.dir != "" {
			nc.WALPath = d.walPath(i)
		}
		t0 := time.Now()
		node, err := kvstore.NewNode(nc)
		d.openTime += time.Since(t0)
		if err != nil {
			return err
		}
		addr := fmt.Sprintf("kv-%d", i)
		l, err := d.netFor(site).Listen(addr)
		if err != nil {
			node.Close()
			return err
		}
		node.Serve(l)
		d.nodes = append(d.nodes, node)
		d.kvAddrs = append(d.kvAddrs, addr)
	}

	for i, at := range d.cfg.agentsAt {
		view := d.netFor(d.cfg.sites[at])
		idx, err := kvstore.NewCluster(kvstore.ClusterConfig{
			Members:           d.kvAddrs,
			ReplicationFactor: gamma,
			LocalAddr:         d.kvAddrs[at],
			Network:           view,
		})
		if err != nil {
			return err
		}
		d.indexes = append(d.indexes, idx)
		cl, err := cloudstore.Dial(context.Background(), view, cloudAddr)
		if err != nil {
			return err
		}
		d.clients = append(d.clients, cl)
		a, err := agent.New(agent.Config{
			Name:    fmt.Sprintf("agent-%d", i),
			Mode:    agent.ModeRing,
			Chunker: newChunker(d.cfg.tr),
			Index:   idx,
			Cloud:   cl,
		})
		if err != nil {
			return err
		}
		d.agents = append(d.agents, a)
	}
	return nil
}

// close stops every service; the cloud seals its open container.
func (d *deployment) close() error {
	var errs []error
	for _, idx := range d.indexes {
		errs = append(errs, idx.Close())
	}
	for _, cl := range d.clients {
		errs = append(errs, cl.Close())
	}
	for _, n := range d.nodes {
		errs = append(errs, n.Close())
	}
	if d.cloud != nil {
		errs = append(errs, d.cloud.Close())
	}
	d.indexes, d.clients, d.nodes, d.agents, d.cloud = nil, nil, nil, nil, nil
	d.kvAddrs = nil
	return errors.Join(errs...)
}

// reopen closes the stack and starts it again from its directories on a
// fresh network, returning how long the stores took to open.
func (d *deployment) reopen() (time.Duration, error) {
	if err := d.close(); err != nil {
		return 0, err
	}
	d.inner = transport.NewMemNetwork()
	d.openTime = 0
	if err := d.start(); err != nil {
		return 0, err
	}
	return d.openTime, nil
}

// lookupStats sums the agents' local and remote index lookups.
func (d *deployment) lookupStats() (local, remote int64) {
	for _, idx := range d.indexes {
		l, r := idx.LookupStats()
		local += l
		remote += r
	}
	return local, remote
}
