// Package cassandra simulates the Cassandra of the paper: a small ring
// where a coordinator routes mutations to token-owning replicas, gossip
// liveness, hinted handoff, and the Stress workload (Table 4).
//
// Seeded crash-recovery bug (Table 5):
//
//   - CA-15131 (pre-read, InetAddressAndPort): the coordinator resolves
//     the token owner, then dereferences endpointState.get(endpoint)
//     without a nil check; an endpoint leaving the ring at that instant
//     fails the request ("request fails due to using removed node").
package cassandra

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// Instrumented point IDs; indexes fixed by model.go.
const (
	PtEndpointPut    = ir.PointID("cassandra.service.StorageService.addEndpoint#0")    // post-write
	PtRouteGet       = ir.PointID("cassandra.service.StorageProxy.route#0")            // pre-read CA-15131
	PtEndpointRemove = ir.PointID("cassandra.service.StorageService.removeEndpoint#0") // post-write
	PtApplyPut       = ir.PointID("cassandra.db.ColumnFamilyStore.applyMutation#0")    // post-write
	PtHintPut        = ir.PointID("cassandra.service.StorageProxy.storeHint#0")        // post-write
)

// BugRemovedEndpoint is the seeded bug identifier.
const BugRemovedEndpoint = "CA-15131"

// Keyed-timer keys (see the toysys template): all mid-run scheduling is
// (key, arg) data so the run is cloneable; handlers are registered by
// wireCoord / wirePeer.
const (
	keyBoot     = "ca.boot"     // peer: gossip join + heartbeats
	keyWrite    = "ca.write"    // coord: route one Stress mutation; arg is a writeArg
	keyWTimeout = "ca.wtimeout" // coord: write-timeout hint + retry; arg is a wtArg
	keyResume   = "ca.resume"   // coord: post-restart Stress resumption
	keyApply    = "ca.apply"    // peer: apply a mutation; arg is the mutMsg
)

// writeArg parameterizes keyWrite.
type writeArg struct{ i, tries int }

// wtArg parameterizes keyWTimeout.
type wtArg struct {
	i, tries int
	key      string
	endpoint sim.NodeID
}

// Runner builds Cassandra runs.
type Runner struct {
	// Replicas is the number of data-owning nodes (default 2); the
	// coordinator is a separate node.
	Replicas int
	// FixRemovedEndpoint patches CA-15131.
	FixRemovedEndpoint bool
}

// Name implements cluster.Runner.
func (r *Runner) Name() string { return "cassandra" }

// Workload implements cluster.Runner.
func (r *Runner) Workload() string { return "Stress" }

// Hosts implements cluster.Runner.
func (r *Runner) Hosts() []string {
	hosts := []string{"node0"}
	for i := 1; i <= r.replicas(); i++ {
		hosts = append(hosts, fmt.Sprintf("node%d", i))
	}
	return hosts
}

func (r *Runner) replicas() int {
	if r.Replicas < 1 {
		return 2
	}
	return r.Replicas
}

type run struct {
	*cluster.Base
	r     *Runner
	coord sim.NodeID
	peers []sim.NodeID

	// Coordinator state.
	ring          map[int]sim.NodeID    // token -> endpoint
	endpointState map[sim.NodeID]string // gossip state
	hints         map[string]sim.NodeID // key -> intended endpoint
	lm            *sim.LivenessMonitor

	// Stress progress.
	nKeys, done int
}

// NewRun implements cluster.Runner.
func (r *Runner) NewRun(cfg cluster.Config) cluster.Run {
	b := cluster.NewBase(cfg)
	rn := &run{
		Base:          b,
		r:             r,
		ring:          make(map[int]sim.NodeID),
		endpointState: make(map[sim.NodeID]string),
		hints:         make(map[string]sim.NodeID),
	}
	e := b.Eng
	coord := e.AddNode("node0", 7000)
	rn.coord = coord.ID
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "gossip", Kind: "syn"}
	rn.lm = sim.NewLivenessMonitor(e, rn.coord, hb, rn.endpointDown)
	rn.wireCoord(coord)

	for i := 1; i <= r.replicas(); i++ {
		p := e.AddNode(fmt.Sprintf("node%d", i), 7000)
		rn.peers = append(rn.peers, p.ID)
		rn.wirePeer(p)
	}
	return rn
}

func (rn *run) endpointDown(n sim.NodeID) { rn.removeEndpoint(n, "down") }

// wireCoord attaches the coordinator's service and keyed handlers;
// shared by NewRun, rejoinCoord and CloneRun.
func (rn *run) wireCoord(n *sim.Node) {
	n.Register("gossip", sim.ServiceFunc(rn.gossipService))
	n.Handle(keyWrite, func(e *sim.Engine, _ sim.NodeID, arg any) {
		a := arg.(writeArg)
		rn.writeKey(a.i, a.tries)
	})
	n.Handle(keyWTimeout, func(e *sim.Engine, _ sim.NodeID, arg any) {
		a := arg.(wtArg)
		if rn.Status() == cluster.Running && rn.done <= a.i {
			rn.storeHint(a.key, a.endpoint)
			rn.writeKey(a.i, a.tries+1)
		}
	})
	n.Handle(keyResume, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.writeKey(rn.done, 0) })
}

// wirePeer attaches a replica's service, keyed handlers and decommission
// hook; shared by NewRun, rejoinReplica and CloneRun.
func (rn *run) wirePeer(n *sim.Node) {
	id := n.ID
	n.Register("replica", sim.ServiceFunc(rn.replicaService))
	n.Handle(keyBoot, func(e *sim.Engine, self sim.NodeID, _ any) {
		e.Send(self, rn.coord, "gossip", "join", nil)
		sim.StartHeartbeats(e, self, rn.coord, sim.HeartbeatConfig{
			Period: sim.Second, Timeout: 3 * sim.Second, Service: "gossip", Kind: "syn",
		})
	})
	n.Handle(keyApply, func(e *sim.Engine, self sim.NodeID, arg any) {
		mm := arg.(mutMsg)
		pb := rn.Cfg.Probe
		defer pb.Enter(self, "cassandra.db.ColumnFamilyStore.applyMutation")()
		rn.NoteWork(self)
		pb.PostWrite(self, PtApplyPut, mm.key, string(self))
		rn.Logger(self, "ColumnFamilyStore").Info("Applied mutation ", mm.key, " at ", self)
		e.Send(self, rn.coord, "gossip", "mutAck", mm.i)
	})
	n.OnShutdown(func(e *sim.Engine) { rn.removeEndpoint(id, "decommissioned") })
}

// Start implements cluster.Run.
func (rn *run) Start() {
	e := rn.Eng
	rn.nKeys = 6 * rn.Cfg.Scale
	for _, p := range rn.peers {
		e.AfterKeyed(p, 10*sim.Millisecond, keyBoot, nil)
	}
	e.AfterKeyed(rn.coord, 100*sim.Millisecond, keyWrite, writeArg{})
}

func (rn *run) gossipService(e *sim.Engine, m sim.Message) {
	switch m.Kind {
	case "syn":
		rn.lm.Beat(m.From)
	case "join":
		rn.addEndpoint(m.From)
	case "mutAck":
		rn.mutAck(m.From, m.Body.(int))
	}
}

// addEndpoint admits a node to the ring.
func (rn *run) addEndpoint(p sim.NodeID) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.coord, "cassandra.service.StorageService.addEndpoint")()
	if _, ok := rn.endpointState[p]; ok {
		// A restarted node re-announced itself before gossip marked it
		// DOWN: its state is refreshed and it keeps its tokens.
		rn.endpointState[p] = "NORMAL"
		pb.PostWrite(rn.coord, PtEndpointPut, string(p))
		rn.lm.Track(p)
		rn.NoteRejoin(p)
		rn.Logger(rn.coord, "StorageService").Info("Node ", p, " rejoined the ring with a new gossip generation")
		return
	}
	token := 0
	for t := range rn.ring {
		if t >= token {
			token = t + 1
		}
	}
	rn.ring[token] = p
	rn.endpointState[p] = "NORMAL"
	pb.PostWrite(rn.coord, PtEndpointPut, string(p))
	rn.lm.Track(p)
	rn.NoteRejoin(p)
	rn.Logger(rn.coord, "StorageService").Info("Node ", p, " joined the ring with token ", token)
}

// removeEndpoint handles both gossip DOWN and decommission: tokens move
// to surviving endpoints.
func (rn *run) removeEndpoint(p sim.NodeID, why string) {
	if !rn.Eng.Node(rn.coord).Alive() {
		return
	}
	if _, ok := rn.endpointState[p]; !ok {
		return
	}
	rn.NotePartitionLost(rn.coord, p)
	for _, owner := range rn.ring {
		if owner == p {
			// Handing p's tokens to another endpoint while p still serves
			// them on the far side of a cut: split brain.
			rn.NoteSplitBrain(rn.coord, p)
			break
		}
	}
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.coord, "cassandra.service.StorageService.removeEndpoint")()
	delete(rn.endpointState, p)
	pb.PostWrite(rn.coord, PtEndpointRemove, string(p))
	rn.lm.Forget(p)
	rn.Logger(rn.coord, "Gossiper").Warn("Node ", p, " removed from ring (", why, ")")
	// Move its tokens to the lowest surviving endpoint.
	var next sim.NodeID
	for _, cand := range rn.peers {
		if _, alive := rn.endpointState[cand]; alive {
			if next == "" || cand < next {
				next = cand
			}
		}
	}
	for token, owner := range rn.ring {
		if owner == p {
			if next != "" {
				rn.ring[token] = next
			} else {
				delete(rn.ring, token)
			}
		}
	}
}

// writeKey routes one Stress mutation. It carries CA-15131.
func (rn *run) writeKey(i, tries int) {
	e, pb := rn.Eng, rn.Cfg.Probe
	if rn.Status() != cluster.Running || i >= rn.nKeys {
		return
	}
	defer pb.Enter(rn.coord, "cassandra.service.StorageProxy.route")()
	key := fmt.Sprintf("key_%d", i)
	token := i % maxInt(len(rn.ring), 1)
	endpoint, ok := rn.ring[token]
	if !ok {
		if tries > 8 {
			rn.Fail("no endpoint for token of " + key)
			return
		}
		e.AfterKeyed(rn.coord, 500*sim.Millisecond, keyWrite, writeArg{i: i, tries: tries + 1})
		return
	}
	// CA-15131 window: the endpoint may leave the ring right here.
	pb.PreRead(rn.coord, PtRouteGet, string(endpoint), key)
	es, present := rn.endpointState[endpoint]
	if !present {
		rn.NoteStaleRead(rn.coord, endpoint)
		if rn.r.FixRemovedEndpoint {
			rn.Logger(rn.coord, "StorageProxy").Warn("Retrying ", key, " after endpoint change")
			e.AfterKeyed(rn.coord, 200*sim.Millisecond, keyWrite, writeArg{i: i, tries: tries + 1})
			return
		}
		rn.Witness(BugRemovedEndpoint)
		e.Throw(rn.coord, "NullPointerException@StorageProxy.route",
			fmt.Sprintf("endpoint %s has no state", endpoint), false)
		rn.Fail("Stress request failed: NullPointerException routing " + key)
		return
	}
	_ = es
	e.Send(rn.coord, endpoint, "replica", "mutate", mutMsg{i: i, key: key})
	// Coordinator write timeout: store a hint and retry.
	e.AfterKeyed(rn.coord, 500*sim.Millisecond, keyWTimeout, wtArg{i: i, tries: tries, key: key, endpoint: endpoint})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// storeHint records a hinted handoff for an unresponsive endpoint.
func (rn *run) storeHint(key string, endpoint sim.NodeID) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.coord, "cassandra.service.StorageProxy.storeHint")()
	rn.hints[key] = endpoint
	pb.PostWrite(rn.coord, PtHintPut, key, string(endpoint))
	rn.Logger(rn.coord, "HintsService").Warn("Stored hint for ", key, " owned by ", endpoint)
}

type mutMsg struct {
	i   int
	key string
}

// replicaService applies mutations (the keyApply timer models the local
// write latency).
func (rn *run) replicaService(e *sim.Engine, m sim.Message) {
	if m.Kind != "mutate" {
		return
	}
	e.AfterKeyed(m.To, 10*sim.Millisecond, keyApply, m.Body.(mutMsg))
}

// ---- restart / rejoin (cluster.Rejoiner) ----

// Rejoin implements cluster.Rejoiner.
func (rn *run) Rejoin(id sim.NodeID) {
	if id == rn.coord {
		rn.rejoinCoord()
		return
	}
	rn.rejoinReplica(id)
}

// rejoinReplica restarts a data node: it re-announces itself through
// gossip and resumes heartbeats; the coordinator either refreshes its
// still-live entry or re-admits it to the ring.
func (rn *run) rejoinReplica(id sim.NodeID) {
	e := rn.Eng
	rn.wirePeer(e.Node(id))
	rn.Logger(id, "CassandraDaemon").Info("Node ", id, " restarted, announcing itself via gossip")
	e.AfterKeyed(id, 10*sim.Millisecond, keyBoot, nil)
}

// rejoinCoord restarts the coordinator: gossip comes back, live
// endpoints are re-tracked by a fresh failure detector and the Stress
// client resumes at the first unacknowledged key. The coordinator is its
// own registry, so the recovery bookkeeping marks it rejoined (and
// working) once it serves again.
func (rn *run) rejoinCoord() {
	e := rn.Eng
	rn.wireCoord(e.Node(rn.coord))
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "gossip", Kind: "syn"}
	rn.lm = sim.NewLivenessMonitor(e, rn.coord, hb, rn.endpointDown)
	for _, cand := range rn.peers {
		if _, ok := rn.endpointState[cand]; ok {
			rn.lm.Track(cand)
		}
	}
	rn.Logger(rn.coord, "CassandraDaemon").Info("Coordinator restarted, resuming Stress at key ", rn.done)
	rn.NoteRejoin(rn.coord)
	rn.NoteWork(rn.coord)
	e.AfterKeyed(rn.coord, 100*sim.Millisecond, keyResume, nil)
}

// Healed implements cluster.Healer: endpoints gossip marked DOWN during
// the cut re-announce themselves — the failure detector no longer
// tracks them, so resumed syn traffic alone would never re-admit them.
// All peers are checked, not just the isolated set: a coordinator-side
// cut removes endpoints that were never themselves isolated.
func (rn *run) Healed(isolated []sim.NodeID) {
	e := rn.Eng
	if !e.Node(rn.coord).Alive() {
		return
	}
	for _, p := range rn.peers {
		if _, ok := rn.endpointState[p]; ok {
			continue
		}
		if n := e.Node(p); n == nil || !n.Alive() {
			continue
		}
		e.AfterKeyed(p, 10*sim.Millisecond, keyBoot, nil)
	}
}

// CloneRun implements cluster.Run.CloneRun (recipe in the toysys template):
// deep-copy the ring, gossip state and hints, re-wire both roles, rebuild
// the liveness monitor on the clone.
func (rn *run) CloneRun(cc cluster.CloneContext) cluster.Run {
	rn2 := &run{
		Base:          rn.CloneBase(cc),
		r:             rn.r,
		coord:         rn.coord,
		peers:         append([]sim.NodeID(nil), rn.peers...),
		ring:          make(map[int]sim.NodeID, len(rn.ring)),
		endpointState: make(map[sim.NodeID]string, len(rn.endpointState)),
		hints:         make(map[string]sim.NodeID, len(rn.hints)),
		nKeys:         rn.nKeys,
		done:          rn.done,
	}
	for t, p := range rn.ring {
		rn2.ring[t] = p
	}
	for p, s := range rn.endpointState {
		rn2.endpointState[p] = s
	}
	for k, p := range rn.hints {
		rn2.hints[k] = p
	}
	e2 := cc.Eng
	rn2.lm = rn.lm.CloneTo(e2, cc.Remap, rn2.endpointDown)
	rn2.wireCoord(e2.Node(rn2.coord))
	for _, p := range rn2.peers {
		rn2.wirePeer(e2.Node(p))
	}
	return rn2
}

func (rn *run) mutAck(from sim.NodeID, i int) {
	if i != rn.done {
		// Duplicate ack from a retried write — stale when the original
		// committer was cut off and its ack arrived after the heal.
		rn.NoteStaleRead(rn.coord, from)
		return
	}
	rn.done++
	if rn.done >= rn.nKeys {
		rn.Logger(rn.coord, "Stress").Info("Stress wrote ", rn.nKeys, " keys")
		rn.Succeed()
		return
	}
	rn.writeKey(rn.done, 0)
}
