// Package zookeeper simulates the ZooKeeper of the paper: a three-node
// quorum (one leader, two followers) replicating a znode tree, with
// leader failover, driven by the SmokeTest+curl workload (create / set /
// get / delete a set of znodes).
//
// ZooKeeper is the system where CrashTuner found dynamic crash points but
// no new bugs (§4.1.2 Discussion): every node holds a full copy of the
// global state, so injections at meta-info accesses only surface IO
// exceptions the system already handles — a lost follower is dropped from
// the quorum, a lost leader is replaced by the lowest surviving peer, and
// the workload completes either way. This implementation reproduces
// exactly that.
package zookeeper

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// Instrumented point IDs; indexes fixed by model.go.
const (
	PtZNodePut    = ir.PointID("zookeeper.server.DataTree.createNode#0")     // post-write
	PtZNodeGet    = ir.PointID("zookeeper.server.DataTree.getNode#0")        // pre-read
	PtZNodeDelete = ir.PointID("zookeeper.server.DataTree.deleteNode#0")     // post-write
	PtFollowerPut = ir.PointID("zookeeper.server.quorum.Leader.replicate#0") // post-write
)

// Runner builds ZooKeeper runs.
type Runner struct {
	// Followers is the number of follower nodes (default 2).
	Followers int
}

// Name implements cluster.Runner.
func (r *Runner) Name() string { return "zookeeper" }

// Workload implements cluster.Runner.
func (r *Runner) Workload() string { return "SmokeTest+curl" }

// Hosts implements cluster.Runner.
func (r *Runner) Hosts() []string {
	hosts := []string{"node0"}
	for i := 1; i <= r.followers(); i++ {
		hosts = append(hosts, fmt.Sprintf("node%d", i))
	}
	return hosts
}

func (r *Runner) followers() int {
	if r.Followers < 1 {
		return 2
	}
	return r.Followers
}

const stepGap = 100 * sim.Millisecond

// Keyed-timer keys (see the toysys template): all mid-run scheduling is
// (key, arg) data so the run is cloneable. Every peer gets all three
// handlers (wirePeer) because any member can become the leader.
const (
	keyStep        = "zk.step"        // current leader: next SmokeTest step
	keyPing        = "zk.ping"        // leader: periodic follower pings
	keyCheckLeader = "zk.checkLeader" // follower: periodic leader watchdog
)

type znode struct {
	path string
	data string
}

type run struct {
	*cluster.Base
	r       *Runner
	members []sim.NodeID
	leader  sim.NodeID

	// Per-node replicated trees (the full-copy property) and leader-ping
	// bookkeeping. prevLeader remembers who a takeover deposed, so a read
	// missing data the old leader never replicated can name its owner.
	trees      map[sim.NodeID]map[string]*znode
	lastPing   map[sim.NodeID]sim.Time
	prevLeader sim.NodeID

	// SmokeTest progress. stalled marks a leader that suspended commits
	// after losing quorum to a cut; Healed or a takeover resumes it.
	nZnodes int
	phase   int // 0=create 1=set 2=get 3=delete
	idx     int
	stalled bool
}

// NewRun implements cluster.Runner.
func (r *Runner) NewRun(cfg cluster.Config) cluster.Run {
	b := cluster.NewBase(cfg)
	rn := &run{
		Base:     b,
		r:        r,
		trees:    make(map[sim.NodeID]map[string]*znode),
		lastPing: make(map[sim.NodeID]sim.Time),
	}
	e := b.Eng
	for i := 0; i <= r.followers(); i++ {
		n := e.AddNode(fmt.Sprintf("node%d", i), 2181)
		rn.members = append(rn.members, n.ID)
		rn.trees[n.ID] = make(map[string]*znode)
		rn.wirePeer(n)
	}
	rn.leader = rn.members[0]
	return rn
}

// wirePeer attaches the quorum service and keyed handlers to a peer;
// shared by NewRun, Rejoin and CloneRun.
func (rn *run) wirePeer(n *sim.Node) {
	n.Register("peer", sim.ServiceFunc(rn.peerService))
	n.Handle(keyStep, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.step() })
	n.Handle(keyPing, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.pingFollowers() })
	n.Handle(keyCheckLeader, func(e *sim.Engine, self sim.NodeID, _ any) { rn.checkLeader(self) })
}

// Start implements cluster.Run.
func (rn *run) Start() {
	e := rn.Eng
	rn.nZnodes = 3 * rn.Cfg.Scale
	rn.Logger(rn.leader, "QuorumPeer").Info("Leader elected as ", rn.leader)
	for _, m := range rn.members {
		if m == rn.leader {
			continue
		}
		rn.lastPing[m] = 0
		// Follower-side leader watchdog: take over if pings stop.
		e.EveryKeyed(m, sim.Second, keyCheckLeader, nil)
	}
	// Leader pings all followers.
	e.EveryKeyed(rn.leader, sim.Second, keyPing, nil)
	e.AfterKeyed(rn.leader, 100*sim.Millisecond, keyStep, nil)
}

func (rn *run) pingFollowers() {
	e := rn.Eng
	for _, m := range rn.members {
		if m != rn.leader {
			e.Send(rn.leader, m, "peer", "leaderPing", nil)
		}
	}
}

// checkLeader is the follower watchdog: when the leader goes silent, the
// lowest surviving member takes over and resumes serving — the recovery
// that makes leader-targeted injections harmless.
func (rn *run) checkLeader(self sim.NodeID) {
	e := rn.Eng
	if rn.Status() != cluster.Running || rn.leader == self {
		return
	}
	// The watchdog judges the leader by its pings alone, not by engine
	// liveness: a leader alive on the far side of a network cut is just as
	// gone as a crashed one. A healthy leader pings every second, so the
	// 3-second staleness threshold never fires on a reachable leader.
	if e.Now()-rn.lastPing[self] <= 3*sim.Second {
		return
	}
	// Lowest surviving member wins the election. Members on the far side
	// of an open cut are not candidates — self cannot hear from them any
	// more than from a dead node. This is what lets a minority elect
	// itself during a partition: the classic split-brain.
	for _, m := range rn.members {
		if n := e.Node(m); n != nil && n.Alive() && !e.PartitionCuts(self, m) {
			if m != self {
				return
			}
			break
		}
	}
	old := rn.leader
	rn.leader = self
	rn.prevLeader = old
	rn.stalled = false
	// Taking over while the deposed leader still serves on the far side
	// of a cut leaves the ensemble with two leaders.
	rn.NoteSplitBrain(self, old)
	rn.NotePartitionLost(self, old)
	e.Throw(self, "IOException@QuorumCnxManager.connectOne",
		fmt.Sprintf("leader %s unreachable", old), true)
	rn.Logger(self, "FastLeaderElection").Warn("Leader ", old, " lost; ", self, " taking over")
	rn.Logger(self, "QuorumPeer").Info("Leader elected as ", self)
	e.EveryKeyed(self, sim.Second, keyPing, nil)
	e.AfterKeyed(self, stepGap, keyStep, nil)
}

// step drives the SmokeTest phases sequentially on the current leader.
func (rn *run) step() {
	if rn.Status() != cluster.Running {
		return
	}
	if rn.idx >= rn.nZnodes {
		rn.phase++
		rn.idx = 0
		if rn.phase > 3 {
			rn.Logger(rn.leader, "SmokeTest").Info("Smoketest finished ", rn.nZnodes, " znodes")
			rn.Succeed()
			return
		}
	}
	path := fmt.Sprintf("/smoke_%d", rn.idx)
	rn.idx++
	switch rn.phase {
	case 0:
		rn.createNode(path)
	case 1:
		rn.setNode(path)
	case 2:
		rn.getNode(path)
	case 3:
		rn.deleteNode(path)
	}
}

// proposal replicates a change to every live peer; a dead peer only
// yields a handled IO exception.
func (rn *run) proposal(kind, path, data string) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.leader, "zookeeper.server.quorum.Leader.replicate")()
	// A leader cut off from a quorum of the ensemble cannot commit: it
	// suspends the workload until the cut heals (Healed resumes it) or a
	// follower watchdog takes over. Only open cuts suspend — the leader
	// always committed optimistically past crashed followers, and that
	// behavior must not change under crash-only campaigns.
	reachable := 1
	cutOff := false
	for _, m := range rn.members {
		if m == rn.leader {
			continue
		}
		if e.PartitionCuts(rn.leader, m) {
			cutOff = true
			continue
		}
		if n := e.Node(m); n != nil && n.Alive() {
			reachable++
		}
	}
	if cutOff && reachable*2 <= len(rn.members) {
		e.Throw(rn.leader, "IOException@QuorumCnxManager.connectOne",
			fmt.Sprintf("cannot replicate %s of %s: no quorum", kind, path), true)
		rn.Logger(rn.leader, "Leader").Warn("Leader ", rn.leader, " lost quorum; suspending commits")
		rn.stalled = true
		return
	}
	quorum := 1
	for _, m := range rn.members {
		if m == rn.leader {
			continue
		}
		pb.PostWrite(rn.leader, PtFollowerPut, path, string(m))
		if n := e.Node(m); n == nil || !n.Alive() {
			e.Throw(rn.leader, "IOException@LearnerHandler.queuePacket",
				fmt.Sprintf("cannot send %s of %s to %s", kind, path, m), true)
			continue
		}
		quorum++
		e.Send(rn.leader, m, "peer", kind, znode{path: path, data: data})
	}
	rn.Logger(rn.leader, "Leader").Info("Replicated ", path, " to quorum of ", quorum)
	e.AfterKeyed(rn.leader, stepGap, keyStep, nil)
}

func (rn *run) createNode(path string) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.leader, "zookeeper.server.DataTree.createNode")()
	rn.trees[rn.leader][path] = &znode{path: path, data: "v0"}
	pb.PostWrite(rn.leader, PtZNodePut, path)
	rn.Logger(rn.leader, "DataTree").Info("Created znode ", path, " on ", rn.leader)
	rn.proposal("create", path, "v0")
}

func (rn *run) setNode(path string) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.leader, "zookeeper.server.DataTree.createNode")()
	if zn, ok := rn.trees[rn.leader][path]; ok { // sanity-checked
		zn.data = "v1"
	}
	pb.PostWrite(rn.leader, PtZNodePut, path)
	rn.proposal("set", path, "v1")
}

func (rn *run) getNode(path string) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.leader, "zookeeper.server.DataTree.getNode")()
	// Pre-read: every node holds the full tree, so even after the
	// injection the local copy answers — at worst a handled exception.
	pb.PreRead(rn.leader, PtZNodeGet, path)
	zn := rn.trees[rn.leader][path]
	if zn == nil {
		// The znode exists on the deposed leader but was never replicated
		// here: this read is stale.
		if rn.prevLeader != "" {
			rn.NoteStaleRead(rn.leader, rn.prevLeader)
		}
		e.Throw(rn.leader, "NoNodeException@DataTree.getNode", path, true)
		rn.Logger(rn.leader, "DataTree").Warn("Read of missing znode ", path)
	}
	e.AfterKeyed(rn.leader, stepGap, keyStep, nil)
}

func (rn *run) deleteNode(path string) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.leader, "zookeeper.server.DataTree.deleteNode")()
	delete(rn.trees[rn.leader], path)
	pb.PostWrite(rn.leader, PtZNodeDelete, path)
	rn.proposal("delete", path, "")
}

// peerService applies replicated changes and leader pings.
func (rn *run) peerService(e *sim.Engine, m sim.Message) {
	self := m.To
	switch m.Kind {
	case "leaderPing":
		rn.lastPing[self] = e.Now()
	case "create", "set":
		zn := m.Body.(znode)
		rn.trees[self][zn.path] = &zn
		rn.NoteWork(self)
	case "delete":
		zn := m.Body.(znode)
		delete(rn.trees[self], zn.path)
		rn.NoteWork(self)
	case "rejoin":
		// The current leader acknowledges a restarted peer rejoining the
		// quorum; subsequent proposals flow to it again.
		rn.NoteRejoin(m.From)
		rn.Logger(self, "LearnerHandler").Info("Follower ", m.From, " rejoined the quorum")
	}
}

// ---- restart / rejoin (cluster.Rejoiner) ----

// Rejoin implements cluster.Rejoiner: the peer restarts with its on-disk
// snapshot of the tree intact. If no takeover has happened yet it
// resumes leading; otherwise it rejoins the quorum as a follower and
// announces itself to the current leader.
func (rn *run) Rejoin(id sim.NodeID) {
	e := rn.Eng
	rn.wirePeer(e.Node(id))
	if rn.leader == id {
		// Restarted before any follower watchdog fired: resume leading.
		rn.Logger(id, "QuorumPeer").Info("Peer ", id, " restarted, resuming leadership")
		e.EveryKeyed(id, sim.Second, keyPing, nil)
		e.AfterKeyed(id, stepGap, keyStep, nil)
		rn.NoteRejoin(id)
		rn.NoteWork(id)
		return
	}
	rn.lastPing[id] = e.Now()
	e.EveryKeyed(id, sim.Second, keyCheckLeader, nil)
	rn.Logger(id, "QuorumPeer").Info("Peer ", id, " restarted, rejoining quorum as follower")
	e.Send(id, rn.leader, "peer", "rejoin", nil)
}

// Healed implements cluster.Healer: every surviving non-leader peer
// re-announces itself to the current leader so the quorum bookkeeping
// (and a deposed leader cut off mid-reign) reconciles — resumed pings
// alone carry no rejoin semantics.
func (rn *run) Healed(isolated []sim.NodeID) {
	e := rn.Eng
	for _, m := range rn.members {
		if m == rn.leader {
			continue
		}
		if n := e.Node(m); n == nil || !n.Alive() {
			continue
		}
		rn.lastPing[m] = e.Now()
		e.Send(m, rn.leader, "peer", "rejoin", nil)
	}
	// A leader that suspended commits for lack of quorum has it back now.
	if rn.stalled {
		rn.stalled = false
		if n := e.Node(rn.leader); n != nil && n.Alive() {
			e.AfterKeyed(rn.leader, stepGap, keyStep, nil)
		}
	}
}

// CloneRun implements cluster.Run.CloneRun (recipe in the toysys template):
// deep-copy every peer's replicated tree and the ping bookkeeping, then
// re-wire all peers. ZooKeeper has no liveness monitor — its watchdog is
// the keyCheckLeader series already in the cloned queue.
func (rn *run) CloneRun(cc cluster.CloneContext) cluster.Run {
	rn2 := &run{
		Base:       rn.CloneBase(cc),
		r:          rn.r,
		members:    append([]sim.NodeID(nil), rn.members...),
		leader:     rn.leader,
		trees:      make(map[sim.NodeID]map[string]*znode, len(rn.trees)),
		lastPing:   make(map[sim.NodeID]sim.Time, len(rn.lastPing)),
		prevLeader: rn.prevLeader,
		nZnodes:    rn.nZnodes,
		phase:      rn.phase,
		idx:        rn.idx,
		stalled:    rn.stalled,
	}
	for m, tree := range rn.trees {
		t2 := make(map[string]*znode, len(tree))
		for path, zn := range tree {
			cp := *zn
			t2[path] = &cp
		}
		rn2.trees[m] = t2
	}
	for m, t := range rn.lastPing {
		rn2.lastPing[m] = t
	}
	for _, m := range rn2.members {
		rn2.wirePeer(cc.Eng.Node(m))
	}
	return rn2
}
