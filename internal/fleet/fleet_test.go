package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/catalog/remote"
	"repro/internal/chaos"
	"repro/internal/generator"
	"repro/internal/httpserve"
	"repro/streamclient"
)

// fleetRig is one running fleet: a catalog service process stand-in,
// N node processes, and a router in front.
type fleetRig struct {
	router    *Router
	routerURL string
	catURL    string
}

const (
	rigTenants  = 6
	rigChannels = 8
	rigGateways = 3
	rigSeed     = 71
)

func rigChannelID(s int) catalog.ID { return catalog.ID(fmt.Sprintf("ch-%03d", s)) }

// buildCluster builds one same-shaped cluster (a node, or the
// 1-process reference when svc is nil — then the catalog registry is
// in-process).
func buildCluster(t *testing.T, shards int, model catalog.CostModel, svc catalog.Service) *videodist.Cluster {
	t.Helper()
	tenants := make([]videodist.ClusterTenant, rigTenants)
	for i := range tenants {
		in, err := generator.CableTV{
			Channels: rigChannels, Gateways: rigGateways,
			Seed: rigSeed + int64(i), EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = videodist.ClusterTenant{Instance: in}
	}
	c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{
		Shards: shards,
		Catalog: &videodist.CatalogOptions{
			Streams: videodist.IdentityCatalogBindings(rigTenants, rigChannels,
				func(s int) videodist.CatalogID { return videodist.CatalogID(rigChannelID(s)) }),
			CostModel: model,
			Remote:    svc,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// buildFleetDial assembles a catalog service, N nodes, and a router.
// dial, when non-nil, replaces net.Dial on the router→node stream path
// (the chaos seam).
func buildFleetDial(t *testing.T, nodes, shards int, model catalog.CostModel, dial func(network, addr string) (net.Conn, error)) *fleetRig {
	t.Helper()
	reg, err := catalog.NewRegistry(catalog.IdentityBindings(rigTenants, rigChannels, rigChannelID), model)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	catSrv := httptest.NewServer(remote.NewHandler(reg))
	t.Cleanup(catSrv.Close)

	urls := make([]string, nodes)
	for k := 0; k < nodes; k++ {
		rc, err := remote.Dial(catSrv.URL, remote.Options{})
		if err != nil {
			t.Fatal(err)
		}
		node := buildCluster(t, shards, model, rc)
		srv := httptest.NewServer(httpserve.NewHandler(node))
		t.Cleanup(srv.Close)
		urls[k] = srv.URL
	}
	rt, err := NewRouter(Options{
		Plan:       Plan{Nodes: nodes, Shards: shards},
		Nodes:      urls,
		CatalogURL: catSrv.URL,
		ID:         fmt.Sprintf("test-n%d-s%d-%s", nodes, shards, model.Name()),
		Dial:       dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)
	return &fleetRig{router: rt, routerURL: rtSrv.URL, catURL: catSrv.URL}
}

// fleetSchedule derives a deterministic mixed workload: local offers
// and departs, catalog admissions and departures, user churn, and
// installing re-solves, across all tenants.
func fleetSchedule(events int, seed int64) []streamclient.Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]streamclient.Event, 0, events)
	for i := 0; i < events; i++ {
		ev := streamclient.Event{Tenant: r.Intn(rigTenants)}
		switch r.Intn(8) {
		case 0, 1:
			ev.Type, ev.Stream = "offer", r.Intn(rigChannels)
		case 2:
			ev.Type, ev.Stream = "depart", r.Intn(rigChannels)
		case 3:
			ev.Type, ev.CatalogID = "catalog-offer", string(rigChannelID(r.Intn(rigChannels)))
		case 4:
			ev.Type, ev.CatalogID = "catalog-depart", string(rigChannelID(r.Intn(rigChannels)))
		case 5:
			ev.Type, ev.User = "leave", r.Intn(rigGateways)
		case 6:
			ev.Type, ev.User = "join", r.Intn(rigGateways)
		case 7:
			ev.Type, ev.Install = "resolve", r.Intn(2) == 0
		}
		evs = append(evs, ev)
	}
	return evs
}

// driveConn pushes the schedule through one plain stream connection,
// serially (Send, Flush, Recv per event), returning the parsed results
// with seqs cleared (both sides number identically; the cleared form
// keeps the comparison about payloads).
func driveConn(t *testing.T, baseURL string, evs []streamclient.Event) []streamclient.Result {
	t.Helper()
	conn, err := streamclient.Dial(baseURL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := make([]streamclient.Result, 0, len(evs))
	for i, ev := range evs {
		if err := conn.Send(ev); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		res, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if res.Seq != i {
			t.Fatalf("recv %d: seq %d", i, res.Seq)
		}
		res.Seq = 0
		out = append(out, res)
	}
	if err := conn.CloseSend(); err != nil {
		t.Fatal(err)
	}
	return out
}

// fetchSnapshot decodes GET /v1/fleet/snapshot.
func fetchSnapshot(t *testing.T, baseURL string) *videodist.FleetSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/fleet/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	var fs videodist.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	return &fs
}

// TestFleetMatchesSingleProcess pins node-count invariance, the fleet
// tier's north-star property: for a deterministic submission sequence,
// an N-node fleet (nodes owning tenant partitions, the catalog
// registry in its own process, a router in front) lands bit-identical
// per-tenant snapshots — catalog refcounts and pricing included — to
// the 1-process cluster, at every node count × shard count × cost
// model.
func TestFleetMatchesSingleProcess(t *testing.T) {
	nodeCounts := []int{1, 2, 3}
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		nodeCounts = []int{1, 3}
		shardCounts = []int{4}
	}
	models := []catalog.CostModel{catalog.Isolated{}, catalog.SharedOrigin{ReplicationFraction: 0.25}}
	evs := fleetSchedule(160, 29)
	for _, model := range models {
		for _, shards := range shardCounts {
			// One reference per (model, shards): the 1-process cluster
			// with an in-process registry, served over the same wire.
			ref := buildCluster(t, shards, model, nil)
			refSrv := httptest.NewServer(httpserve.NewHandler(ref))
			refResults := driveConn(t, refSrv.URL, evs)
			refFS := fetchSnapshot(t, refSrv.URL)
			refSrv.Close()
			if refFS.Catalog == nil {
				t.Fatal("reference snapshot has no catalog section")
			}
			for _, nodes := range nodeCounts {
				t.Run(fmt.Sprintf("%s/shards=%d/nodes=%d", model.Name(), shards, nodes), func(t *testing.T) {
					rig := buildFleetDial(t, nodes, shards, model, nil)
					got := driveConn(t, rig.routerURL, evs)
					for i := range refResults {
						if !reflect.DeepEqual(got[i], refResults[i]) {
							t.Fatalf("event %d (%+v): fleet result %+v, 1-process %+v",
								i, evs[i], got[i], refResults[i])
						}
					}
					fs := fetchSnapshot(t, rig.routerURL)
					if fs.RenderTenants() != refFS.RenderTenants() {
						t.Fatalf("per-tenant tables diverge:\n--- %d-node fleet\n%s\n--- 1-process\n%s",
							nodes, fs.RenderTenants(), refFS.RenderTenants())
					}
					if fs.Catalog == nil {
						t.Fatal("merged snapshot has no catalog section")
					}
					if fs.Catalog.Render() != refFS.Catalog.Render() {
						t.Fatalf("catalog renders diverge:\n--- %d-node fleet\n%s\n--- 1-process\n%s",
							nodes, fs.Catalog.Render(), refFS.Catalog.Render())
					}
					for _, cmp := range []struct {
						name      string
						got, want any
					}{
						{"utility", fs.Utility, refFS.Utility},
						{"offered", fs.Offered, refFS.Offered},
						{"admitted", fs.Admitted, refFS.Admitted},
						{"active", fs.ActiveStreams, refFS.ActiveStreams},
						{"pairs", fs.Pairs, refFS.Pairs},
						{"feasible", fs.AllFeasible, refFS.AllFeasible},
					} {
						if cmp.got != cmp.want {
							t.Fatalf("merged %s = %v, 1-process %v", cmp.name, cmp.got, cmp.want)
						}
					}
				})
			}
		}
	}
}

// TestRouterSessionResume drives a resumable client session through
// the router across a client-side disconnect: the second connection
// replays into dup acknowledgements below the router's watermark, and
// the per-tenant outcome matches an uninterrupted 1-process run.
func TestRouterSessionResume(t *testing.T) {
	model := catalog.Isolated{}
	evs := fleetSchedule(60, 31)

	ref := buildCluster(t, 2, model, nil)
	refSrv := httptest.NewServer(httpserve.NewHandler(ref))
	driveConn(t, refSrv.URL, evs)
	refFS := fetchSnapshot(t, refSrv.URL)
	refSrv.Close()

	rig := buildFleetDial(t, 2, 2, model, nil)
	cut := 25 // events on the first client connection
	sess, err := streamclient.NewSession(rig.routerURL, streamclient.SessionOptions{ID: "resume-client"})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs[:cut] {
		if err := sess.Send(ev); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		for {
			res, err := sess.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if res.Seq == i+1 {
				break
			}
		}
	}
	// Drop the client connection without CloseSend; the router's
	// watermark covers everything answered so far.
	_ = sess.Close()

	sess2, err := streamclient.NewSession(rig.routerURL, streamclient.SessionOptions{ID: "resume-client"})
	if err != nil {
		t.Fatal(err)
	}
	// A resumed session starts numbering at 1; pre-seed the replayed
	// prefix by resending the already-applied events — the router must
	// answer every one with a dup acknowledgement, applying nothing.
	dups := 0
	for i, ev := range evs {
		if err := sess2.Send(ev); err != nil {
			t.Fatalf("resend %d: %v", i, err)
		}
		for {
			res, err := sess2.Recv()
			if err != nil {
				t.Fatalf("re-recv %d: %v", i, err)
			}
			if res.Seq == i+1 {
				if res.Dup {
					dups++
				}
				break
			}
		}
	}
	if err := sess2.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if dups != cut {
		t.Fatalf("resumed session saw %d dup acknowledgements, want %d (exactly the replayed prefix)", dups, cut)
	}
	fs := fetchSnapshot(t, rig.routerURL)
	if fs.RenderTenants() != refFS.RenderTenants() {
		t.Fatalf("resumed fleet diverges from uninterrupted reference:\n--- fleet\n%s\n--- reference\n%s",
			fs.RenderTenants(), refFS.RenderTenants())
	}
	_ = sess2.Close()
}

// TestRouterNodeFailure cuts router→node connections mid-stream with
// scripted chaos faults (ErrInjected-wrapped, injected at the router's
// upstream dial): the router's node sessions redial and replay, the
// client sees every result exactly once, no event double-applies, and
// the final state matches an unfaulted 1-process run.
func TestRouterNodeFailure(t *testing.T) {
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	evs := fleetSchedule(80, 37)

	ref := buildCluster(t, 2, model, nil)
	refSrv := httptest.NewServer(httpserve.NewHandler(ref))
	driveConn(t, refSrv.URL, evs)
	refFS := fetchSnapshot(t, refSrv.URL)
	refSrv.Close()

	// The first two router→node connections die after 10 writes each;
	// replacements are clean.
	dial := chaos.Dialer(func(i int) chaos.ConnScript {
		if i < 2 {
			return chaos.ConnScript{CutAfterWrites: 10}
		}
		return chaos.ConnScript{}
	}, nil)
	rig := buildFleetDial(t, 2, 2, model, dial)

	// A session client, so the router's upstream sessions are
	// inspectable after the drive.
	sess, err := streamclient.NewSession(rig.routerURL, streamclient.SessionOptions{ID: "chaos-client"})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if err := sess.Send(ev); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		for {
			res, err := sess.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if res.Error != "" {
				t.Fatalf("event %d: %s", i, res.Error)
			}
			if res.Seq == i+1 {
				break
			}
		}
	}
	if err := sess.CloseSend(); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()

	rig.router.mu.Lock()
	rs := rig.router.sessions["chaos-client"]
	rig.router.mu.Unlock()
	if rs == nil {
		t.Fatal("router kept no session state for the chaos client")
	}
	redials := 0
	for _, ns := range rs.nodes {
		if ns != nil {
			redials += ns.Redials()
		}
	}
	// Two scripted cuts: beyond the two first dials, every extra
	// connection is a fault-driven redial.
	if redials < 4 {
		t.Fatalf("router upstream sessions opened %d connections, want >= 4 (two scripted cuts)", redials)
	}

	fs := fetchSnapshot(t, rig.routerURL)
	if fs.RenderTenants() != refFS.RenderTenants() {
		t.Fatalf("chaos fleet diverges from unfaulted reference:\n--- fleet\n%s\n--- reference\n%s",
			fs.RenderTenants(), refFS.RenderTenants())
	}
	if fs.Catalog == nil || refFS.Catalog == nil || fs.Catalog.Render() != refFS.Catalog.Render() {
		t.Fatal("chaos fleet catalog diverges from unfaulted reference (a double-applied settlement would show here)")
	}
}

// TestPlanPartition pins the contiguous shard→node split: every shard
// has exactly one owner, ranges are contiguous, and every tenant
// routes to the node owning its pinned shard.
func TestPlanPartition(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5} {
		for _, shards := range []int{1, 2, 3, 4, 8, 9} {
			p := Plan{Nodes: nodes, Shards: shards}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			prev := 0
			counts := make([]int, nodes)
			for s := 0; s < shards; s++ {
				n := p.NodeOfShard(s)
				if n < 0 || n >= nodes {
					t.Fatalf("N=%d S=%d: shard %d → node %d out of range", nodes, shards, s, n)
				}
				if n < prev {
					t.Fatalf("N=%d S=%d: shard %d → node %d breaks contiguity (prev %d)", nodes, shards, s, n, prev)
				}
				prev = n
				counts[n]++
			}
			owned := 0
			for n, c := range counts {
				owned += c
				if shards >= nodes && c == 0 {
					t.Fatalf("N=%d S=%d: node %d owns no shards", nodes, shards, n)
				}
			}
			if owned != shards {
				t.Fatalf("N=%d S=%d: %d shards owned, want %d", nodes, shards, owned, shards)
			}
			for tn := 0; tn < 3*shards; tn++ {
				if got, want := p.NodeOfTenant(tn), p.NodeOfShard(tn%shards); got != want {
					t.Fatalf("N=%d S=%d: tenant %d → node %d, want %d", nodes, shards, tn, got, want)
				}
			}
			if p.NodeOfTenant(-1) != 0 {
				t.Fatal("negative tenant must route to node 0")
			}
		}
	}
}
