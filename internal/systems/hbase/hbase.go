// Package hbase simulates the HBase of the paper: an HMaster tracking
// RegionServers (RS) through both direct reports and ZooKeeper sessions,
// region assignment, and a PE (performance evaluation) + curl workload.
//
// Seeded crash-recovery bugs (Table 5):
//
//   - HBASE-22041 (post-write, ServerName, "master startup node hang"):
//     an RS reports to the master before registering its ZooKeeper
//     session. If it crashes in between, ZooKeeper never notices, no
//     recovery runs, and the master's startup thread retries reading
//     from the dead server forever (the "//TODO: How many times should
//     we retry" loop).
//   - HBASE-22017 (pre-read, ServerName, "master fails to become
//     active"): master activation dereferences onlineServers.get(sn)
//     without a nil check; a server deregistering at that instant aborts
//     the master.
//   - HBASE-21740 (post-write in the paper; here the same flaw surfaces
//     through the shutdown path, see registry notes): a RegionServer
//     stopped while its MetricsRegionServer is still initializing aborts
//     with an unhandled exception instead of exiting cleanly.
package hbase

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// Instrumented point IDs; indexes fixed by model.go.
const (
	PtOnlinePut     = ir.PointID("hbase.master.HMaster.reportServer#0")            // post-write HBASE-22041
	PtActiveGet     = ir.PointID("hbase.master.HMaster.activate#0")                // pre-read HBASE-22017
	PtAssignPut     = ir.PointID("hbase.master.HMaster.assignRegion#0")            // post-write
	PtRouteGet      = ir.PointID("hbase.master.HMaster.routeRequest#0")            // pre-read (handled)
	PtServersRemove = ir.PointID("hbase.master.HMaster.serverRemoved#0")           // post-write
	PtInitMetrics   = ir.PointID("hbase.regionserver.HRegionServer.initMetrics#0") // pre-read HBASE-21740
	PtMoveGet       = ir.PointID("hbase.master.HMaster.moveRegion#0")              // pre-read HBASE-22050
)

// Seeded bug identifiers.
const (
	BugStartupHang = "HBASE-22041"
	BugActivateNPE = "HBASE-22017"
	BugInitAbort   = "HBASE-21740"
	BugMoveRace    = "HBASE-22050"
)

// probeRetryWitness is the retry count after which the startup thread's
// endless-retry loop is attributed to HBASE-22041.
const probeRetryWitness = 10

// Runner builds HBase runs.
type Runner struct {
	// RegionServers is the number of RS nodes (default 2).
	RegionServers int
	// Fix* patch the seeded bugs.
	FixStartupHang bool
	FixActivateNPE bool
	FixInitAbort   bool
	FixMoveRace    bool
	// FixDoubleRegister patches the duplicate-incarnation anomaly: a
	// restarted server reporting for duty while the master still holds
	// its previous incarnation online expires the old one first instead
	// of overwriting it and leaking its region bookkeeping.
	FixDoubleRegister bool
}

// Name implements cluster.Runner.
func (r *Runner) Name() string { return "hbase" }

// Workload implements cluster.Runner.
func (r *Runner) Workload() string { return "PE+curl" }

// Hosts implements cluster.Runner.
func (r *Runner) Hosts() []string {
	hosts := []string{"node0"}
	for i := 1; i <= r.rss(); i++ {
		hosts = append(hosts, fmt.Sprintf("node%d", i))
	}
	return hosts
}

func (r *Runner) rss() int {
	if r.RegionServers < 1 {
		return 2
	}
	return r.RegionServers
}

// Keyed-timer keys (see the toysys template): all mid-run scheduling is
// (key, arg) data so the run is cloneable; handlers are registered by
// wireMaster / wireRS.
const (
	keyBoot   = "hb.boot"   // rs: run the report → zk → metrics startup sequence
	keyZK     = "hb.zk"     // rs: zk-register + session heartbeats step
	keyInit   = "hb.init"   // rs: init-metrics step (HBASE-21740 window)
	keyOpAck  = "hb.opAck"  // rs: PE op apply latency elapsed; arg is the op index
	keyWait   = "hb.wait"   // master: startup-thread probe round (HBASE-22041 loop)
	keyCurl   = "hb.curl"   // master: periodic web poll (self-rescheduling)
	keyAssign = "hb.assign" // master: (re)assign a region; arg is the region
	keyRunOp  = "hb.runOp"  // master: route one PE op; arg is the op index
	keyOpTO   = "hb.opTO"   // master: client op-timeout recheck; arg is the op index
	keyMove   = "hb.move"   // master: balancer move; arg is the region
)

// rsInfo is the master's view of a RegionServer.
type rsInfo struct {
	id      sim.NodeID
	regions map[string]bool
	acked   bool // startup probe acknowledged
}

// rsState is a RegionServer's own state.
type rsState struct {
	id       sim.NodeID
	zk       bool // ZooKeeper session registered
	initDone bool
}

type run struct {
	*cluster.Base
	r      *Runner
	master sim.NodeID
	rss    []sim.NodeID

	// Master state.
	onlineServers map[sim.NodeID]*rsInfo
	assignments   map[string]sim.NodeID // region -> server
	active        bool
	probing       bool
	probeRetries  int
	lm            *sim.LivenessMonitor // the ZooKeeper session tracker

	// RS state per node.
	servers map[sim.NodeID]*rsState

	// PE client progress.
	nOps, opsDone int
	nRegions      int
	opened        map[string]bool
	peStarted     bool
}

// NewRun implements cluster.Runner.
func (r *Runner) NewRun(cfg cluster.Config) cluster.Run {
	b := cluster.NewBase(cfg)
	rn := &run{
		Base:          b,
		r:             r,
		onlineServers: make(map[sim.NodeID]*rsInfo),
		assignments:   make(map[string]sim.NodeID),
		servers:       make(map[sim.NodeID]*rsState),
		opened:        make(map[string]bool),
	}
	e := b.Eng
	master := e.AddNode("node0", 16000)
	rn.master = master.ID
	// The ZooKeeper session tracker: servers are only tracked once their
	// ZK registration completes — that gap is HBASE-22041's window.
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "zk", Kind: "session"}
	rn.lm = sim.NewLivenessMonitor(e, rn.master, hb, rn.serverExpired)
	rn.wireMaster(master)

	for i := 1; i <= r.rss(); i++ {
		rs := e.AddNode(fmt.Sprintf("node%d", i), 16020)
		rn.rss = append(rn.rss, rs.ID)
		rn.servers[rs.ID] = &rsState{id: rs.ID}
		rn.wireRS(rs)
	}
	return rn
}

func (rn *run) serverExpired(n sim.NodeID) { rn.serverRemoved(n, "expired") }

// wireMaster attaches the HMaster's services and keyed handlers; shared
// by NewRun, rejoinMaster and CloneRun.
func (rn *run) wireMaster(n *sim.Node) {
	n.Register("master", sim.ServiceFunc(rn.masterService))
	n.Register("zk", sim.ServiceFunc(rn.zkService))
	n.Handle(keyWait, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.waitForServers() })
	n.Handle(keyCurl, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.curlPoll() })
	n.Handle(keyAssign, func(e *sim.Engine, _ sim.NodeID, arg any) { rn.assignRegion(arg.(string)) })
	n.Handle(keyRunOp, func(e *sim.Engine, _ sim.NodeID, arg any) { rn.runOp(arg.(int)) })
	n.Handle(keyOpTO, func(e *sim.Engine, _ sim.NodeID, arg any) {
		i := arg.(int)
		if rn.Status() == cluster.Running && rn.opsDone < i {
			rn.runOp(i)
		}
	})
	n.Handle(keyMove, func(e *sim.Engine, _ sim.NodeID, arg any) { rn.moveRegion(arg.(string)) })
}

// wireRS attaches a RegionServer's service, keyed handlers and shutdown
// script; shared by NewRun, rejoinRS and CloneRun.
func (rn *run) wireRS(n *sim.Node) {
	id := n.ID
	n.Register("rs", sim.ServiceFunc(rn.rsService))
	n.Handle(keyBoot, func(e *sim.Engine, self sim.NodeID, _ any) { rn.rsStartup(self) })
	n.Handle(keyZK, func(e *sim.Engine, self sim.NodeID, _ any) { rn.rsZKRegister(self) })
	n.Handle(keyInit, func(e *sim.Engine, self sim.NodeID, _ any) { rn.rsInitMetrics(self) })
	n.Handle(keyOpAck, func(e *sim.Engine, self sim.NodeID, arg any) {
		e.Send(self, rn.master, "master", "opAck", arg)
	})
	n.OnShutdown(func(e *sim.Engine) { rn.rsShutdown(id) })
}

// rsShutdown is the RS stop script. HBASE-21740: stopping during metrics
// initialization aborts instead of exiting cleanly.
func (rn *run) rsShutdown(id sim.NodeID) {
	st := rn.servers[id]
	if !st.initDone && !rn.r.FixInitAbort {
		rn.Witness(BugInitAbort)
		rn.Eng.Throw(id, "RuntimeException@MetricsRegionServer.init",
			"metrics source not yet initialized during stop", false)
		rn.Logger(id, "HRegionServer").Error("RegionServer ", id, " aborted during initialization")
	}
	rn.serverRemoved(id, "shutdown")
	rn.lm.Forget(id)
}

// Start implements cluster.Run.
func (rn *run) Start() {
	e := rn.Eng
	rn.nRegions = 2 * rn.Cfg.Scale
	rn.nOps = 6 * rn.Cfg.Scale
	for _, rs := range rn.rss {
		e.AfterKeyed(rs, 10*sim.Millisecond, keyBoot, nil)
	}
	e.AfterKeyed(rn.master, 200*sim.Millisecond, keyWait, nil)
	rn.curl()
}

func (rn *run) curl() {
	rn.Eng.AfterKeyed(rn.master, 300*sim.Millisecond, keyCurl, nil)
}

// curlPoll is the keyCurl handler body; it reschedules itself.
func (rn *run) curlPoll() {
	if rn.Status() != cluster.Running {
		return
	}
	defer rn.Cfg.Probe.Enter(rn.master, "hbase.master.HMaster.webRegionState")()
	if sn, ok := rn.assignments["region_1"]; ok { // sanity-checked read
		rn.Logger(rn.master, "MasterStatusServlet").Info("Web request for region region_1 on ", sn)
	}
	rn.Eng.AfterKeyed(rn.master, 500*sim.Millisecond, keyCurl, nil)
}

// ---- RegionServer side ----

// rsStartup runs the report → ZK-register → init-metrics sequence whose
// gaps carry HBASE-22041 and HBASE-21740.
func (rn *run) rsStartup(id sim.NodeID) {
	e := rn.Eng
	e.Send(id, rn.master, "master", "report", nil)
	e.AfterKeyed(id, 50*sim.Millisecond, keyZK, nil)
}

// rsZKRegister is the keyZK step: establish the ZooKeeper session, then
// schedule metrics initialization.
func (rn *run) rsZKRegister(id sim.NodeID) {
	e := rn.Eng
	e.Send(id, rn.master, "zk", "zkRegister", nil)
	sim.StartHeartbeats(e, id, rn.master, sim.HeartbeatConfig{
		Period: sim.Second, Timeout: 3 * sim.Second, Service: "zk", Kind: "session",
	})
	e.AfterKeyed(id, 50*sim.Millisecond, keyInit, nil)
}

// rsInitMetrics is the keyInit step.
func (rn *run) rsInitMetrics(id sim.NodeID) {
	pb := rn.Cfg.Probe
	defer pb.Enter(id, "hbase.regionserver.HRegionServer.initMetrics")()
	// HBASE-21740 window: the server may be stopped right here, while
	// metrics are still initializing.
	pb.PreRead(id, PtInitMetrics, string(id))
	st := rn.servers[id]
	if !rn.Eng.Node(id).Alive() {
		return
	}
	st.initDone = true
	rn.Logger(id, "MetricsRegionServer").Info("Metrics source for ", id, " initialized")
}

func (rn *run) rsService(e *sim.Engine, m sim.Message) {
	self := m.To
	switch m.Kind {
	case "probe":
		e.Send(self, rn.master, "master", "probeAck", nil)
	case "openRegion":
		region := m.Body.(string)
		rn.Logger(self, "RSRpcServices").Info("Opened region ", region, " on ", self)
		e.Send(self, rn.master, "master", "regionOpened", region)
	case "op":
		// Apply a PE operation and ack.
		e.AfterKeyed(self, 10*sim.Millisecond, keyOpAck, m.Body)
	}
}

// ---- HMaster side ----

// zkService is the master-colocated ZooKeeper session endpoint.
func (rn *run) zkService(e *sim.Engine, m sim.Message) {
	if m.Kind == "session" {
		rn.lm.Beat(m.From)
	} else if m.Kind == "zkRegister" {
		rn.lm.Track(m.From)
		rn.Logger(rn.master, "ZKWatcher").Info("ZooKeeper session established for ", m.From)
	}
}

func (rn *run) masterService(e *sim.Engine, m sim.Message) {
	switch m.Kind {
	case "report":
		rn.reportServer(m.From)
	case "probeAck":
		rn.probeAck(m.From)
	case "regionOpened":
		rn.regionOpened(m.Body.(string), m.From)
	case "opAck":
		rn.opAck(m.Body.(int))
	}
}

// reportServer carries HBASE-22041's first half: the server is online
// before ZooKeeper knows about it.
func (rn *run) reportServer(rs sim.NodeID) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.master, "hbase.master.HMaster.reportServer")()
	if _, ok := rn.onlineServers[rs]; ok {
		// A restarted server reported for duty while the master still held
		// its previous incarnation online. The fix expires the old
		// incarnation first (YouAreDeadException path); without it the
		// stale entry is overwritten and its region bookkeeping leaks —
		// the duplicate-incarnation anomaly the recovery oracle flags.
		if rn.r.FixDoubleRegister {
			rn.serverRemoved(rs, "reconnected with a new startcode")
		} else {
			rn.NoteDuplicateIncarnation(rs)
			rn.Logger(rn.master, "ServerManager").Warn(
				"RegionServer ", rs, " reported for duty twice; previous incarnation still online")
		}
	}
	rn.onlineServers[rs] = &rsInfo{id: rs, regions: make(map[string]bool)}
	rn.NoteRejoin(rs)
	// HBASE-22041 window: the server may crash right after this write,
	// before its ZooKeeper registration.
	pb.PostWrite(rn.master, PtOnlinePut, string(rs))
	rn.Logger(rn.master, "ServerManager").Info("RegionServer ", rs, " reported for duty")
}

// waitForServers is the startup thread: it probes every online server
// and retries forever — the HBASE-22041 TODO loop.
func (rn *run) waitForServers() {
	e := rn.Eng
	if rn.active || rn.Status() != cluster.Running {
		return
	}
	defer rn.Cfg.Probe.Enter(rn.master, "hbase.master.HMaster.waitForServers")()
	allAcked := len(rn.onlineServers) > 0
	ids := rn.sortedServers()
	for _, id := range ids {
		si := rn.onlineServers[id]
		if !si.acked {
			allAcked = false
			e.Send(rn.master, id, "rs", "probe", nil)
		}
	}
	if allAcked {
		rn.activate()
		return
	}
	rn.probeRetries++
	if rn.probeRetries == probeRetryWitness {
		if rn.r.FixStartupHang {
			// The fix: give up on servers ZooKeeper does not vouch for.
			for _, id := range ids {
				if !rn.onlineServers[id].acked && !rn.lm.Tracking(id) {
					rn.serverRemoved(id, "not in ZooKeeper")
				}
			}
		} else {
			rn.Witness(BugStartupHang)
			// //TODO: How many times should we retry? (HBASE-22041)
			rn.Logger(rn.master, "HMaster").Warn(
				"Startup thread still waiting for unreachable region servers")
		}
	}
	e.AfterKeyed(rn.master, 500*sim.Millisecond, keyWait, nil)
}

func (rn *run) probeAck(rs sim.NodeID) {
	si, ok := rn.onlineServers[rs]
	if !ok {
		rn.NoteStaleRead(rn.master, rs)
		return
	}
	si.acked = true
}

// activate carries HBASE-22017: the unchecked dereference of an online
// server that may just have deregistered.
func (rn *run) activate() {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.master, "hbase.master.HMaster.activate")()
	for _, id := range rn.sortedServers() {
		// HBASE-22017 window.
		pb.PreRead(rn.master, PtActiveGet, string(id))
		si := rn.onlineServers[id]
		if si == nil {
			if rn.r.FixActivateNPE {
				rn.Logger(rn.master, "HMaster").Warn("Server ", id, " vanished during activation")
				continue
			}
			rn.Witness(BugActivateNPE)
			e.Throw(rn.master, "NullPointerException@HMaster.activate",
				fmt.Sprintf("server %s not online", id), false)
			rn.Fail("HMaster failed to become active: NullPointerException")
			e.Abort(rn.master, "MasterFatal@HMaster", "activation thread died")
			return
		}
		_ = si
	}
	rn.active = true
	rn.Logger(rn.master, "HMaster").Info("Master is now active with ", len(rn.onlineServers), " servers")
	for i := 1; i <= rn.nRegions; i++ {
		rn.assignRegion(fmt.Sprintf("region_%d", i))
	}
}

// moveRegion carries HBASE-22050: the balancer reads the region's
// current assignment non-atomically with server shutdown; a server
// stopping at that instant aborts the master.
func (rn *run) moveRegion(region string) {
	e, pb := rn.Eng, rn.Cfg.Probe
	if rn.Status() != cluster.Running {
		return
	}
	defer pb.Enter(rn.master, "hbase.master.HMaster.moveRegion")()
	// HBASE-22050 window: the region's server may deregister right here.
	pb.PreRead(rn.master, PtMoveGet, region)
	src, ok := rn.assignments[region]
	if !ok {
		if rn.r.FixMoveRace {
			rn.Logger(rn.master, "RegionMover").Warn("Region ", region, " in transition, skipping move")
			return
		}
		rn.Witness(BugMoveRace)
		e.Throw(rn.master, "NullPointerException@AssignmentManager.move",
			fmt.Sprintf("region %s has no location during move", region), false)
		rn.Fail("HMaster aborted moving " + region + ": NullPointerException")
		e.Abort(rn.master, "MasterFatal@AssignmentManager", "balancer thread died")
		return
	}
	// Pick the other server, if any.
	for _, cand := range rn.sortedServers() {
		if cand != src {
			delete(rn.onlineServers[src].regions, region)
			rn.assignments[region] = cand
			rn.onlineServers[cand].regions[region] = true
			rn.NoteWork(cand)
			rn.Logger(rn.master, "RegionMover").Info("Moving region ", region, " from ", src, " to ", cand)
			e.Send(rn.master, cand, "rs", "openRegion", region)
			return
		}
	}
}

// assignRegion places a region on the next server.
func (rn *run) assignRegion(region string) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.master, "hbase.master.HMaster.assignRegion")()
	ids := rn.sortedServers()
	if len(ids) == 0 {
		e.AfterKeyed(rn.master, 500*sim.Millisecond, keyAssign, region)
		return
	}
	var idx int
	fmt.Sscanf(region, "region_%d", &idx)
	target := ids[idx%len(ids)]
	rn.assignments[region] = target
	rn.onlineServers[target].regions[region] = true
	rn.NoteWork(target)
	pb.PostWrite(rn.master, PtAssignPut, region, string(target))
	rn.Logger(rn.master, "AssignmentManager").Info("Assigned region ", region, " to ", target)
	e.Send(rn.master, target, "rs", "openRegion", region)
}

// regionOpened starts the PE client once every region is open.
func (rn *run) regionOpened(region string, rs sim.NodeID) {
	if _, ok := rn.onlineServers[rs]; !ok {
		rn.NoteStaleRead(rn.master, rs)
	}
	rn.opened[region] = true
	if !rn.peStarted && len(rn.opened) == rn.nRegions {
		rn.peStarted = true
		rn.runOp(1)
	}
}

// runOp routes one PE operation through the master to the region's
// server.
func (rn *run) runOp(i int) {
	e, pb := rn.Eng, rn.Cfg.Probe
	if i > rn.nOps || rn.Status() != cluster.Running {
		return
	}
	defer pb.Enter(rn.master, "hbase.master.HMaster.routeRequest")()
	region := fmt.Sprintf("region_%d", (i%rn.nRegions)+1)
	// Pre-read of the routing table; the value owner may leave here, but
	// this path recovers by re-routing after reassignment.
	pb.PreRead(rn.master, PtRouteGet, region)
	target, ok := rn.assignments[region]
	alive := false
	if ok {
		if n := e.Node(target); n != nil && n.Alive() {
			alive = true
		}
	}
	if !ok || !alive {
		rn.Logger(rn.master, "ConnectionImplementation").Warn("Retrying op ", i, " for ", region)
		e.AfterKeyed(rn.master, 500*sim.Millisecond, keyRunOp, i)
		return
	}
	e.Send(rn.master, target, "rs", "op", i)
	// Client-side op timeout: re-route if the server died mid-op.
	e.AfterKeyed(rn.master, sim.Second, keyOpTO, i)
}

func (rn *run) opAck(i int) {
	if i != rn.opsDone+1 {
		return // duplicate ack from a retried op
	}
	rn.opsDone++
	// The balancer rebalances once the PE workload is half done,
	// exercising the HBASE-22050 window deterministically mid-run.
	if rn.opsDone == rn.nOps/2 {
		rn.Eng.AfterKeyed(rn.master, sim.Millisecond, keyMove, "region_1")
	}
	if rn.opsDone >= rn.nOps {
		rn.Logger(rn.master, "PerformanceEvaluation").Info("PE finished ", rn.nOps, " operations")
		rn.Succeed()
		return
	}
	rn.runOp(i + 1)
}

// serverRemoved handles both ZK session expiry and graceful stop: the
// server's regions move to the surviving servers.
func (rn *run) serverRemoved(rs sim.NodeID, why string) {
	if !rn.Eng.Node(rn.master).Alive() {
		return
	}
	si, ok := rn.onlineServers[rs]
	if !ok {
		return
	}
	rn.NotePartitionLost(rn.master, rs)
	if len(si.regions) > 0 {
		// Reassigning regions still served on the far side of a cut gives
		// every one of them two owners: split brain.
		rn.NoteSplitBrain(rn.master, rs)
	}
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.master, "hbase.master.HMaster.serverRemoved")()
	delete(rn.onlineServers, rs)
	pb.PostWrite(rn.master, PtServersRemove, string(rs))
	rn.lm.Forget(rs)
	rn.Logger(rn.master, "ServerManager").Warn("RegionServer ", rs, " ", why, ", reassigning regions")
	regions := make([]string, 0, len(si.regions))
	for r := range si.regions {
		regions = append(regions, r)
	}
	sortStrings(regions)
	for _, r := range regions {
		delete(rn.assignments, r)
		if rn.active {
			rn.Eng.AfterKeyed(rn.master, 100*sim.Millisecond, keyAssign, r)
		}
	}
}

// ---- restart / rejoin (cluster.Rejoiner) ----

// Rejoin implements cluster.Rejoiner.
func (rn *run) Rejoin(id sim.NodeID) {
	if id == rn.master {
		rn.rejoinMaster()
		return
	}
	rn.rejoinRS(id)
}

// rejoinRS restarts a RegionServer: fresh process state, then the full
// report → ZK-register → init-metrics startup sequence runs again. If
// the master still holds the previous incarnation online, the report
// trips the double-register path above.
func (rn *run) rejoinRS(id sim.NodeID) {
	e := rn.Eng
	rn.servers[id] = &rsState{id: id}
	rn.wireRS(e.Node(id))
	rn.Logger(id, "HRegionServer").Info("RegionServer ", id, " restarted, reporting for duty")
	e.AfterKeyed(id, 10*sim.Millisecond, keyBoot, nil)
}

// rejoinMaster restarts the HMaster: services come back, online servers
// are recovered from ZooKeeper and re-tracked by a fresh session
// tracker, the startup thread or the PE client resumes, and regions left
// unassigned (their reassignment timers died with the old process) are
// re-driven. The master is its own registry, so the recovery bookkeeping
// marks it rejoined (and working) once it serves again.
func (rn *run) rejoinMaster() {
	e := rn.Eng
	rn.wireMaster(e.Node(rn.master))
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "zk", Kind: "session"}
	rn.lm = sim.NewLivenessMonitor(e, rn.master, hb, rn.serverExpired)
	for _, id := range rn.sortedServers() {
		rn.lm.Track(id)
	}
	rn.Logger(rn.master, "HMaster").Info("HMaster restarted, recovered ", len(rn.onlineServers), " servers from ZooKeeper")
	rn.NoteRejoin(rn.master)
	rn.NoteWork(rn.master)
	if !rn.active {
		rn.probeRetries = 0
		e.AfterKeyed(rn.master, 200*sim.Millisecond, keyWait, nil)
	} else {
		for i := 1; i <= rn.nRegions; i++ {
			region := fmt.Sprintf("region_%d", i)
			if _, ok := rn.assignments[region]; !ok {
				e.AfterKeyed(rn.master, 100*sim.Millisecond, keyAssign, region)
			}
		}
		if rn.peStarted && rn.opsDone < rn.nOps {
			e.AfterKeyed(rn.master, 100*sim.Millisecond, keyRunOp, rn.opsDone+1)
		}
	}
	rn.curl()
}

// Healed implements cluster.Healer: RegionServers whose ZooKeeper
// session expired during the cut re-run the full startup sequence — the
// master no longer tracks them, so resumed session beats alone would
// never re-admit them. All RSs are checked, not just the isolated set:
// a master-side cut expires servers that were never themselves
// isolated.
func (rn *run) Healed(isolated []sim.NodeID) {
	e := rn.Eng
	if !e.Node(rn.master).Alive() {
		return
	}
	for _, rs := range rn.rss {
		if _, ok := rn.onlineServers[rs]; ok {
			continue
		}
		if n := e.Node(rs); n == nil || !n.Alive() {
			continue
		}
		e.AfterKeyed(rs, 10*sim.Millisecond, keyBoot, nil)
	}
}

// CloneRun implements cluster.Run.CloneRun; see the toysys template for the
// four-step recipe.
func (rn *run) CloneRun(cc cluster.CloneContext) cluster.Run {
	rn2 := &run{
		Base:          rn.CloneBase(cc),
		r:             rn.r,
		master:        rn.master,
		rss:           append([]sim.NodeID(nil), rn.rss...),
		onlineServers: make(map[sim.NodeID]*rsInfo, len(rn.onlineServers)),
		assignments:   make(map[string]sim.NodeID, len(rn.assignments)),
		active:        rn.active,
		probing:       rn.probing,
		probeRetries:  rn.probeRetries,
		servers:       make(map[sim.NodeID]*rsState, len(rn.servers)),
		nOps:          rn.nOps,
		opsDone:       rn.opsDone,
		nRegions:      rn.nRegions,
		opened:        make(map[string]bool, len(rn.opened)),
		peStarted:     rn.peStarted,
	}
	for id, si := range rn.onlineServers {
		regions := make(map[string]bool, len(si.regions))
		for r, v := range si.regions {
			regions[r] = v
		}
		rn2.onlineServers[id] = &rsInfo{id: si.id, regions: regions, acked: si.acked}
	}
	for r, sn := range rn.assignments {
		rn2.assignments[r] = sn
	}
	for id, st := range rn.servers {
		cp := *st
		rn2.servers[id] = &cp
	}
	for r, v := range rn.opened {
		rn2.opened[r] = v
	}

	e2 := cc.Eng
	rn2.wireMaster(e2.Node(rn2.master))
	for _, id := range rn2.rss {
		rn2.wireRS(e2.Node(id))
	}
	rn2.lm = rn.lm.CloneTo(e2, cc.Remap, rn2.serverExpired)
	return rn2
}

func (rn *run) sortedServers() []sim.NodeID {
	ids := make([]sim.NodeID, 0, len(rn.onlineServers))
	for id := range rn.onlineServers {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
