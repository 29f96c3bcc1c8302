package main

import (
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/catalog/remote"
	"repro/internal/fleet"
	"repro/internal/httpserve"
	"repro/streamclient"
)

// sharedOrigin is the catalog pricing every catalog workload runs
// under: later tenants pay a quarter of an already-transcoded origin.
var sharedOrigin = videodist.CatalogSharedOrigin{ReplicationFraction: 0.25}

// seams are the public hooks a traced run instruments. The zero value
// builds the plain stack.
type seams struct {
	walFS   videodist.WALFS                              // WALOptions.FS
	catalog func(catalog.Service) catalog.Service        // wraps each fleet node's CatalogOptions.Remote
	dial    func(network, addr string) (net.Conn, error) // router → node connections
}

// stack is one built serving stack: the clusters (one per node), the
// HTTP listeners in front of them, and, for the fleet, the catalog
// service and the router.
type stack struct {
	spec     spec
	nodes    []*videodist.Cluster
	servers  []*httptest.Server // catalog service first, then nodes, then router
	registry *catalog.Registry  // the fleet's catalog service registry
	router   *fleet.Router
	url      string // where the workload's client connects ("" for session workloads)
	nodeURLs []string
	walDir   string
	conn     *streamclient.Conn // the workload's one client connection
}

// build generates the tenants and assembles the workload's stack. It is
// the set-up the benchmark times, client dial excepted.
func build(s spec, seed int64, walDir string, sm seams) (st *stack, err error) {
	ins, err := s.instances(seed)
	if err != nil {
		return nil, err
	}
	st = &stack{spec: s, walDir: walDir}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
			st = nil
		}
	}()
	var bindings []videodist.CatalogBinding
	if s.catalog {
		bindings = videodist.IdentityCatalogBindings(s.tenants, s.channels, channelID)
	}
	if s.nodes == 0 {
		opts := videodist.ClusterOptions{Shards: s.shards}
		if s.catalog {
			opts.Catalog = &videodist.CatalogOptions{Streams: bindings, CostModel: sharedOrigin}
		}
		if s.wal {
			opts.WAL = &videodist.WALOptions{Dir: walDir, Sync: videodist.WALSyncBatch, FS: sm.walFS}
		}
		c, err := videodist.NewCluster(clusterTenants(ins), opts)
		if err != nil {
			return st, fmt.Errorf("cluster: %w", err)
		}
		st.nodes = append(st.nodes, c)
		if !s.session {
			srv := httptest.NewServer(httpserve.NewHandler(c))
			st.servers = append(st.servers, srv)
			st.url = srv.URL
			st.nodeURLs = []string{srv.URL}
		}
		return st, nil
	}

	st.registry, err = catalog.NewRegistry(bindings, sharedOrigin)
	if err != nil {
		return st, fmt.Errorf("catalog registry: %w", err)
	}
	catSrv := httptest.NewServer(remote.NewHandler(st.registry))
	st.servers = append(st.servers, catSrv)
	for k := 0; k < s.nodes; k++ {
		rc, err := remote.Dial(catSrv.URL, remote.Options{})
		if err != nil {
			return st, fmt.Errorf("catalog dial: %w", err)
		}
		var svc catalog.Service = rc
		if sm.catalog != nil {
			svc = sm.catalog(rc)
		}
		c, err := videodist.NewCluster(clusterTenants(ins), videodist.ClusterOptions{
			Shards:  s.shards,
			Catalog: &videodist.CatalogOptions{Streams: bindings, Remote: svc},
		})
		if err != nil {
			rc.Close()
			return st, fmt.Errorf("node %d: %w", k, err)
		}
		st.nodes = append(st.nodes, c)
		srv := httptest.NewServer(httpserve.NewHandler(c))
		st.servers = append(st.servers, srv)
		st.nodeURLs = append(st.nodeURLs, srv.URL)
	}
	st.router, err = fleet.NewRouter(fleet.Options{
		Plan:       st.plan(),
		Nodes:      st.nodeURLs,
		CatalogURL: catSrv.URL,
		ID:         "perfbench",
		Dial:       sm.dial,
	})
	if err != nil {
		return st, fmt.Errorf("router: %w", err)
	}
	rtSrv := httptest.NewServer(st.router.Handler())
	st.servers = append(st.servers, rtSrv)
	st.url = rtSrv.URL
	return st, nil
}

// plan is the fleet's routing plan: one logical shard per node shard.
func (st *stack) plan() fleet.Plan {
	return fleet.Plan{Nodes: st.spec.nodes, Shards: st.spec.nodes * st.spec.shards}
}

// dial opens the workload's one client connection.
func (st *stack) dial() (*streamclient.Conn, error) {
	return streamclient.Dial(st.url)
}

// close tears the stack down, router first and catalog service last,
// and removes the WAL directory.
func (st *stack) close() error {
	var errs []error
	if st.conn != nil {
		_ = st.conn.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for i := len(st.servers) - 1; i >= 1; i-- {
		st.servers[i].Close()
	}
	for _, c := range st.nodes {
		if err := c.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster close: %w", err))
		}
	}
	if len(st.servers) > 0 {
		st.servers[0].Close()
	}
	if st.registry != nil {
		st.registry.Close()
	}
	if st.walDir != "" {
		if err := os.RemoveAll(st.walDir); err != nil {
			errs = append(errs, fmt.Errorf("wal cleanup: %w", err))
		}
	}
	return errors.Join(errs...)
}

// gate checks the fleet invariants at a quiescent point: every tenant
// feasible and, for catalog workloads, every catalog reference drained
// (each pass ends with all its streams departed).
func (st *stack) gate(where string) error {
	for k, c := range st.nodes {
		fs, err := c.Snapshot()
		if err != nil {
			return fmt.Errorf("%s: node %d snapshot: %w", where, k, err)
		}
		if !fs.AllFeasible {
			return fmt.Errorf("%s: node %d: AllFeasible is false", where, k)
		}
		if fs.Catalog != nil && st.registry == nil {
			if err := drained(fs.Catalog); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
		}
	}
	if st.registry != nil {
		if err := drained(st.registry.Snapshot()); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
	}
	return nil
}

func drained(snap *videodist.CatalogSnapshot) error {
	if snap == nil {
		return fmt.Errorf("catalog snapshot unavailable")
	}
	for _, e := range snap.Entries {
		if e.Refs != 0 {
			return fmt.Errorf("catalog entry %s holds %d refs after a drained pass", e.ID, e.Refs)
		}
	}
	return nil
}

// walPath names a fresh WAL directory under root for set-up n.
func walPath(root string, n int) string {
	return filepath.Join(root, fmt.Sprintf("wal-%d-%d", os.Getpid(), n))
}
