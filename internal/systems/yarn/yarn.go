// Package yarn simulates the Hadoop2/Yarn + MapReduce stack of the paper:
// a ResourceManager (RM) scheduling containers on NodeManagers (NMs), an
// MRAppMaster (AM) running in a master container, map tasks with a
// two-phase commit protocol, a reduce phase fetching map outputs, and a
// web ("curl") status endpoint. The workload is WordCount+curl (Table 4).
//
// The implementation genuinely carries the crash-recovery bugs CrashTuner
// found or reproduced in Yarn/MapReduce; each fires only when a node
// leaves the cluster inside its bug-triggering window:
//
//   - YARN-9164 (pre-read, NodeId): completeContainer dereferences
//     nodes.get(nodeId) without a nil check; an in-flight
//     container-complete RPC crossing the node's removal brings the RM
//     down ("cluster down due to using the removed node").
//   - YARN-5918 (pre-read, NodeId): the job-stats thread reads node
//     resources of a removed node, raising an NPE that fails the job.
//   - YARN-9238 (pre-read, ApplicationAttemptId): allocate validates the
//     attempt against appCache, but then uses currentAttempt — which the
//     recovery path has already reset to the new, uninitialized attempt —
//     producing an invalid event ("allocating containers to removed
//     ApplicationAttempt").
//   - MR-3858 (post-write, TaskAttemptId): a task node crashing between
//     commitPending and doneCommit leaves a stale pending commit; every
//     re-attempt of the task fails the commit check and the job hangs.
//   - Timeout issue (§4.1.3, post-write on successAttempt): crashing a
//     map node right after its output is recorded forces the reduce to
//     grind through fetch retries before the map re-executes; the job
//     finishes but far beyond the 4x threshold.
package yarn

import (
	"strconv"
	"sync"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// Instrumented point IDs; indexes are fixed by the IR model in model.go.
const (
	PtNodesPut      = ir.PointID("yarn.resourcemanager.ResourceManager.registerNode#0")      // post-write
	PtCompleteGet   = ir.PointID("yarn.resourcemanager.ResourceManager.completeContainer#0") // pre-read YARN-9164
	PtStatsGet      = ir.PointID("yarn.resourcemanager.ResourceManager.updateNodeStats#0")   // pre-read YARN-5918
	PtAllocateCur   = ir.PointID("yarn.resourcemanager.ResourceManager.allocate#1")          // pre-read YARN-9238
	PtNodesRemove   = ir.PointID("yarn.resourcemanager.ResourceManager.nodeRemoved#0")       // post-write
	PtAppsPut       = ir.PointID("yarn.resourcemanager.ResourceManager.submitApp#0")         // post-write
	PtCommitsPut    = ir.PointID("mapreduce.v2.app.MRAppMaster.commitPending#0")             // post-write MR-3858
	PtSuccessPut    = ir.PointID("mapreduce.v2.app.MRAppMaster.taskDone#0")                  // post-write timeout issue
	PtCommitsRemove = ir.PointID("mapreduce.v2.app.MRAppMaster.doneCommit#1")                // post-write
	PtContainersPut = ir.PointID("yarn.server.nodemanager.NodeManager.launchContainer#0")    // post-write
	PtAllocNode     = ir.PointID("yarn.resourcemanager.ResourceManager.allocate#4")          // pre-read YARN-9193
)

// Seeded bug identifiers (paper bug IDs).
const (
	BugCompleteNPE    = "YARN-9164"
	BugJobStatsNPE    = "YARN-5918"
	BugRemovedAttempt = "YARN-9238"
	BugRemovedNode    = "YARN-9193"
	BugStaleCommit    = "MR-3858"
	BugFetchTimeout   = "YARN-TIMEOUT-1" // §4.1.3 successAttempt timeout issue
)

// Keyed-timer keys (see the toysys template): all mid-run scheduling is
// (key, arg) data so the run is cloneable; handlers are registered by
// wireRM / wireNM. The AM-side keys also live in wireNM — the AM runs
// inside a container on an NM node, so every NM carries its handlers and
// only events scheduled on the AM node ever dispatch them.
const (
	keyBoot       = "yarn.boot"       // nm: register with the RM + heartbeats
	keySubmit     = "yarn.submit"     // rm: client submits the app; arg is the app ID
	keyCurl       = "yarn.curl"       // rm: periodic web poll (self-rescheduling)
	keyLaunchAM   = "yarn.launchAM"   // rm: (re)try launching the current attempt's AM
	keyAlloc      = "yarn.alloc"      // rm: re-ask for containers; arg is an allocMsg
	keyAMInit     = "yarn.amInit"     // nm: AM process init after container launch
	keyMapDone    = "yarn.mapDone"    // nm: map work finished; arg is the *taskMsg
	keyCommit2    = "yarn.commit2"    // nm: commit phase two; arg is the *taskMsg
	keyRetryAlloc = "yarn.retryAlloc" // am: ask one replacement container
	keyFetch      = "yarn.fetch"      // am: reduce fetch step; arg is a fetchArg
	keyReduceDone = "yarn.reduceDone" // am: reduce work finished
)

// fetchArg parameterizes keyFetch.
type fetchArg struct {
	i, tries int
}

// Runner builds Yarn runs.
type Runner struct {
	// NodeManagers is the number of NM nodes (default 2).
	NodeManagers int
	// Fix* patch the corresponding seeded bug, for ablations and tests.
	FixCompleteNPE    bool
	FixJobStatsNPE    bool
	FixRemovedAttempt bool
	FixRemovedNode    bool
	FixStaleCommit    bool

	// ids caches the identifier strings every run re-derives — host
	// names, task/attempt IDs, container IDs. A campaign builds
	// thousands of runs from one Runner, and these strings are a
	// function of small dense integers, so they are rendered once and
	// shared; indices past the tables fall back to building the string.
	ids struct {
		once     sync.Once
		hosts    []string   // hosts[i] = "node<i>"
		tasks    []string   // tasks[i] = "task_0001_m_<i:2>"
		attempts [][]string // attempts[i][a-1] = "attempt_0001_m_<i:2>_<a>"
		conts    [][]string // conts[n-1][c-1] = "container_0001_<n:2>_<c:6>"
	}
}

func (r *Runner) initIDs() {
	r.ids.once.Do(func() {
		r.ids.hosts = make([]string, r.nms()+1)
		for i := range r.ids.hosts {
			r.ids.hosts[i] = "node" + strconv.Itoa(i)
		}
		const nTasks, nAttempts = 32, 8
		r.ids.tasks = make([]string, nTasks)
		r.ids.attempts = make([][]string, nTasks)
		for i := 0; i < nTasks; i++ {
			r.ids.tasks[i] = "task_0001_m_" + zpad(i, 2)
			row := make([]string, nAttempts)
			for a := 1; a <= nAttempts; a++ {
				row[a-1] = "attempt_0001_m_" + zpad(i, 2) + "_" + strconv.Itoa(a)
			}
			r.ids.attempts[i] = row
		}
		const nAppAttempts, nConts = 4, 64
		r.ids.conts = make([][]string, nAppAttempts)
		for n := 1; n <= nAppAttempts; n++ {
			row := make([]string, nConts)
			for c := 1; c <= nConts; c++ {
				row[c-1] = "container_0001_" + zpad(n, 2) + "_" + zpad(c, 6)
			}
			r.ids.conts[n-1] = row
		}
	})
}

func (r *Runner) host(i int) string {
	if i < len(r.ids.hosts) {
		return r.ids.hosts[i]
	}
	return "node" + strconv.Itoa(i)
}

func (r *Runner) taskID(i int) string {
	if i < len(r.ids.tasks) {
		return r.ids.tasks[i]
	}
	return "task_0001_m_" + zpad(i, 2)
}

func (r *Runner) attemptID(taskIdx, attempt int) string {
	if taskIdx < len(r.ids.attempts) && attempt >= 1 && attempt <= len(r.ids.attempts[taskIdx]) {
		return r.ids.attempts[taskIdx][attempt-1]
	}
	b := make([]byte, 0, 24)
	b = append(b, "attempt_0001_m_"...)
	b = appendPadded(b, taskIdx, 2)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(attempt), 10)
	return string(b)
}

func (r *Runner) containerID(attempt, seq int) string {
	if attempt >= 1 && attempt <= len(r.ids.conts) && seq >= 1 && seq <= len(r.ids.conts[attempt-1]) {
		return r.ids.conts[attempt-1][seq-1]
	}
	b := make([]byte, 0, 32)
	b = append(b, "container_0001_"...)
	b = appendPadded(b, attempt, 2)
	b = append(b, '_')
	b = appendPadded(b, seq, 6)
	return string(b)
}

// Name implements cluster.Runner.
func (r *Runner) Name() string { return "yarn" }

// Workload implements cluster.Runner.
func (r *Runner) Workload() string { return "WordCount+curl" }

// Hosts implements cluster.Runner.
func (r *Runner) Hosts() []string {
	hosts := []string{"node0"}
	for i := 1; i <= r.nms(); i++ {
		hosts = append(hosts, "node"+strconv.Itoa(i))
	}
	return hosts
}

func (r *Runner) nms() int {
	if r.NodeManagers < 1 {
		return 2
	}
	return r.NodeManagers
}

// schedNode is the RM's view of a NodeManager (SchedulerNode).
// containers is a small slice rather than a set: nodes hold a handful of
// containers, and paths that iterate it sort first, so membership order
// never leaks into behavior.
type schedNode struct {
	id         sim.NodeID
	containers []string
	resources  int // available "memory"
}

// dropContainer removes cid from sn.containers if present.
func (sn *schedNode) dropContainer(cid string) {
	for i, c := range sn.containers {
		if c == cid {
			sn.containers = append(sn.containers[:i], sn.containers[i+1:]...)
			return
		}
	}
}

// appAttempt mirrors RMAppAttemptImpl.
type appAttempt struct {
	id              string
	n               int
	state           string // NEW -> LAUNCHED -> RUNNING -> FINISHED/FAILED
	masterContainer string
	node            sim.NodeID
}

// application mirrors RMAppImpl.
type application struct {
	id             string
	currentAttempt *appAttempt
	attempts       int
	state          string
}

// mapTask is the AM's task bookkeeping.
type mapTask struct {
	id             string
	attempt        int
	attemptID      string
	container      string
	node           sim.NodeID
	successAttempt string
	successNode    sim.NodeID
	done           bool
}

type run struct {
	*cluster.Base
	r   *Runner
	rm  sim.NodeID
	nms []sim.NodeID

	// RM state.
	nodes    map[sim.NodeID]*schedNode
	apps     map[string]*application
	appCache map[string]bool // live attempt IDs
	lm       *sim.LivenessMonitor
	nextCont int

	// AM state (lives on amNode once launched).
	app    *application
	amNode sim.NodeID
	amUp   bool
	maps   []*mapTask
	// tasks backs maps; amInit resets it in place on AM restart instead
	// of allocating a fresh task set (nothing long-lived holds *mapTask:
	// messages carry task IDs, and lookups go through maps).
	tasks   []mapTask
	commits map[string]string // taskID -> pending commit attemptID
	rrNext  int
}

// NewRun implements cluster.Runner.
func (r *Runner) NewRun(cfg cluster.Config) cluster.Run {
	r.initIDs()
	b := cluster.NewBase(cfg)
	rn := &run{
		Base:     b,
		r:        r,
		nodes:    make(map[sim.NodeID]*schedNode, 8),
		apps:     make(map[string]*application),
		appCache: make(map[string]bool),
		commits:  make(map[string]string),
	}
	e := b.Eng
	rm := e.AddNode(r.host(0), 8030)
	rn.rm = rm.ID
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "rm", Kind: "heartbeat"}
	rn.lm = sim.NewLivenessMonitor(e, rn.rm, hb, rn.nmLost)
	rn.wireRM(rm)

	for i := 1; i <= r.nms(); i++ {
		nm := e.AddNode(r.host(i), 45454)
		rn.nms = append(rn.nms, nm.ID)
		rn.wireNM(nm)
	}
	return rn
}

func (rn *run) nmLost(n sim.NodeID) { rn.nodeRemoved(n, "lost") }

// wireRM attaches the ResourceManager's service and keyed handlers;
// shared by NewRun, rejoinRM and CloneRun.
func (rn *run) wireRM(n *sim.Node) {
	n.Register("rm", sim.ServiceFunc(rn.rmService))
	n.Handle(keySubmit, func(e *sim.Engine, _ sim.NodeID, arg any) { rn.submitApp(arg.(string)) })
	n.Handle(keyCurl, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.curlPoll() })
	n.Handle(keyLaunchAM, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.launchAM(rn.app) })
	n.Handle(keyAlloc, func(e *sim.Engine, _ sim.NodeID, arg any) {
		a := arg.(allocMsg)
		rn.allocate(&a)
	})
}

// wireNM attaches a NodeManager's service, keyed handlers and shutdown
// script; shared by NewRun, rejoinNM and CloneRun. The AM-side handlers
// ride along on every NM (see the key block above).
func (rn *run) wireNM(n *sim.Node) {
	id := n.ID
	n.Register("nm", sim.ServiceFunc(rn.nmService))
	n.Handle(keyBoot, func(e *sim.Engine, self sim.NodeID, _ any) { rn.nmBoot(self) })
	n.Handle(keyAMInit, func(e *sim.Engine, self sim.NodeID, _ any) { rn.amInit(self) })
	n.Handle(keyMapDone, func(e *sim.Engine, self sim.NodeID, arg any) {
		e.Send(self, rn.amNode, "am", "commitPending", arg.(*taskMsg))
	})
	n.Handle(keyCommit2, func(e *sim.Engine, self sim.NodeID, arg any) {
		tm := arg.(*taskMsg)
		e.Send(self, rn.amNode, "am", "doneCommit", tm)
		e.Send(self, rn.rm, "rm", "containerComplete", &contMsg{containerID: tm.containerID, node: self})
	})
	n.Handle(keyRetryAlloc, func(e *sim.Engine, _ sim.NodeID, _ any) {
		if rn.amUp {
			e.Send(rn.amNode, rn.rm, "rm", "allocate",
				&allocMsg{attemptID: rn.app.currentAttempt.id, asks: 1})
		}
	})
	n.Handle(keyFetch, func(e *sim.Engine, _ sim.NodeID, arg any) {
		a := arg.(fetchArg)
		rn.fetchOutput(a.i, a.tries)
	})
	n.Handle(keyReduceDone, func(e *sim.Engine, _ sim.NodeID, _ any) {
		e.Send(rn.amNode, rn.rm, "rm", "appDone", rn.app.id)
	})
	// Shutdown script: deregister synchronously with the RM (the paper's
	// shutdown-RPC-plus-wait).
	n.OnShutdown(func(e *sim.Engine) { rn.nodeRemoved(id, "shutdown") })
}

// nmBoot registers with the RM and starts heartbeats.
func (rn *run) nmBoot(self sim.NodeID) {
	e := rn.Eng
	e.Send(self, rn.rm, "rm", "register", nil)
	sim.StartHeartbeats(e, self, rn.rm, sim.HeartbeatConfig{
		Period: sim.Second, Timeout: 3 * sim.Second, Service: "rm", Kind: "heartbeat",
	})
}

// Start implements cluster.Run: NMs register, then the client submits a
// WordCount job and polls the web UI.
func (rn *run) Start() {
	e := rn.Eng
	for _, nm := range rn.nms {
		e.AfterKeyed(nm, 10*sim.Millisecond, keyBoot, nil)
	}
	e.AfterKeyed(rn.rm, 50*sim.Millisecond, keySubmit, "application_0001")
	rn.curl()
}

// curl polls the RM web endpoint, exercising the sanity-checked web read.
func (rn *run) curl() {
	rn.Eng.AfterKeyed(rn.rm, 300*sim.Millisecond, keyCurl, nil)
}

// curlPoll is the keyCurl handler body; it reschedules itself.
func (rn *run) curlPoll() {
	if rn.Status() != cluster.Running {
		return
	}
	defer rn.Cfg.Probe.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.webAppState")()
	if app, ok := rn.apps["application_0001"]; ok { // sanity-checked read
		rn.Logger(rn.rm, "WebApp").Info("Web request for application ", app.id, " in state ", app.state)
	}
	rn.Eng.AfterKeyed(rn.rm, 500*sim.Millisecond, keyCurl, nil)
}

// ---- RM side ----

func (rn *run) rmService(e *sim.Engine, m sim.Message) {
	switch m.Kind {
	case "heartbeat":
		rn.lm.Beat(m.From)
	case "register":
		rn.registerNode(m.From)
	case "containerComplete":
		rn.completeContainer(m.Body.(*contMsg))
	case "nodeStats":
		rn.updateNodeStats(m.Body.(*taskMsg).node)
	case "allocate":
		rn.allocate(m.Body.(*allocMsg))
	case "appDone":
		rn.appDone(m.Body.(string))
	}
}

type contMsg struct {
	containerID string
	node        sim.NodeID
}

type allocMsg struct {
	attemptID string
	asks      int
}

func (rn *run) registerNode(nm sim.NodeID) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.registerNode")()
	if old, ok := rn.nodes[nm]; ok {
		// RECONNECTED: a restarted NM re-registered before the liveness
		// monitor noticed its previous incarnation dying. Its containers
		// died with the old process; release them and tell the AM.
		rn.Logger(rn.rm, "RMNodeImpl").Warn("Reconnecting node ", nm, ", releasing lost containers")
		rn.lostContainers(nm, old)
	}
	rn.nodes[nm] = &schedNode{id: nm, containers: make([]string, 0, 8), resources: 8}
	pb.PostWrite(rn.rm, PtNodesPut, string(nm))
	rn.lm.Track(nm)
	rn.NoteRejoin(nm)
	rn.Logger(rn.rm, "ResourceTrackerService").Info("NodeManager from ", nm.Host(), " registered as ", nm)
}

// nodeRemoved handles both LOST (liveness timeout) and graceful shutdown.
// The lost node's containers are released with the node, atomically — the
// un-atomic path is completeContainer below.
func (rn *run) nodeRemoved(nm sim.NodeID, why string) {
	if !rn.Eng.Node(rn.rm).Alive() {
		return
	}
	sn, ok := rn.nodes[nm]
	if !ok {
		return
	}
	rn.NotePartitionLost(rn.rm, nm)
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.nodeRemoved")()
	delete(rn.nodes, nm)
	pb.PostWrite(rn.rm, PtNodesRemove, string(nm))
	rn.lm.Forget(nm)
	rn.Logger(rn.rm, "RMNodeImpl").Warn("NodeManager ", nm, " ", why, ", deactivating node")
	rn.lostContainers(nm, sn)
}

// lostContainers reacts to every container on nm dying with its process:
// if the application master lived there the attempt fails and a new one
// is scheduled (the recovery path YARN-9238 races against), otherwise the
// AM is told which task containers it lost so it can re-run them. Shared
// by node removal and NM reconnection.
func (rn *run) lostContainers(nm sim.NodeID, sn *schedNode) {
	if rn.app != nil && rn.app.currentAttempt != nil &&
		rn.app.currentAttempt.node == nm && rn.app.currentAttempt.state != "FINISHED" {
		// Launching a replacement AM while the old one is alive across a
		// cut is a split brain: two masters for one application.
		rn.NoteSplitBrain(rn.rm, nm)
		rn.amUp = false
		rn.failAttempt(rn.app)
		return
	}
	if rn.amUp {
		// Sort in place for the deterministic order the map-backed set
		// used to be iterated in; container order carries no meaning.
		sortStrings(sn.containers)
		for _, cid := range sn.containers {
			rn.Eng.Send(rn.rm, rn.amNode, "am", "containerLost", &contMsg{containerID: cid, node: nm})
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (rn *run) failAttempt(app *application) {
	old := app.currentAttempt
	old.state = "FAILED"
	delete(rn.appCache, old.id)
	rn.Logger(rn.rm, "RMAppAttemptImpl").Warn("Attempt ", old.id, " failed, scheduling retry")
	app.attempts++
	att := &appAttempt{
		id:    "appattempt_0001_" + zpad(app.attempts, 6),
		n:     app.attempts,
		state: "NEW",
	}
	app.currentAttempt = att
	rn.appCache[att.id] = true
	rn.Logger(rn.rm, "RMAppImpl").Info("Created attempt ", att.id, " for application ", app.id)
	rn.Eng.AfterKeyed(rn.rm, 200*sim.Millisecond, keyLaunchAM, nil)
}

func (rn *run) submitApp(appID string) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.submitApp")()
	app := &application{id: appID, state: "ACCEPTED", attempts: 1}
	rn.apps[appID] = app
	pb.PostWrite(rn.rm, PtAppsPut, appID)
	rn.app = app
	rn.Logger(rn.rm, "ClientRMService").Info("Submitted application ", appID)
	att := &appAttempt{id: "appattempt_0001_000001", n: 1, state: "NEW"}
	app.currentAttempt = att
	rn.appCache[att.id] = true
	rn.Logger(rn.rm, "RMAppImpl").Info("Created attempt ", att.id, " for application ", appID)
	rn.launchAM(app)
}

// pickNode returns the next NM with free resources (sanity-checked read;
// not a crash point).
func (rn *run) pickNode(startAfter int) *schedNode {
	defer rn.Cfg.Probe.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.pickNode")()
	for i := 0; i < len(rn.nms); i++ {
		cand := rn.nms[(startAfter+i)%len(rn.nms)]
		if sn, ok := rn.nodes[cand]; ok && sn.resources > 0 {
			return sn
		}
	}
	return nil
}

func (rn *run) newContainer(sn *schedNode, attempt *appAttempt) string {
	rn.nextCont++
	cid := rn.r.containerID(attempt.n, rn.nextCont)
	sn.containers = append(sn.containers, cid)
	sn.resources--
	rn.NoteWork(sn.id)
	rn.Logger(rn.rm, "SchedulerNode").Info("Assigned container ", cid, " on host ", sn.id)
	return cid
}

// launchAM allocates the master container and starts the AM on it.
func (rn *run) launchAM(app *application) {
	if app.state == "FAILED" || app.state == "FINISHED" {
		return
	}
	att := app.currentAttempt
	sn := rn.pickNode(rn.rrNext)
	if sn == nil {
		rn.Eng.AfterKeyed(rn.rm, 500*sim.Millisecond, keyLaunchAM, nil)
		return
	}
	rn.rrNext++
	cid := rn.newContainer(sn, att)
	att.masterContainer = cid
	att.node = sn.id
	att.state = "LAUNCHED"
	rn.Logger(rn.rm, "RMAppAttemptImpl").Info("Attempt ", att.id, " launched in container ", cid)
	rn.Eng.Send(rn.rm, sn.id, "nm", "launchAM", &contMsg{containerID: cid, node: sn.id})
}

// completeContainer carries YARN-9164: the nodes.get result is used
// unchecked. A container-complete RPC that crosses the node's removal
// dereferences nil and brings the RM down.
func (rn *run) completeContainer(cm *contMsg) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.completeContainer")()
	pb.PreRead(rn.rm, PtCompleteGet, string(cm.node), cm.containerID)
	sn := rn.nodes[cm.node]
	if sn == nil {
		rn.NoteStaleRead(rn.rm, cm.node)
		if rn.r.FixCompleteNPE {
			rn.Logger(rn.rm, "AbstractYarnScheduler").Error(
				"Container ", cm.containerID, " completed on removed node ", cm.node)
			return
		}
		rn.Witness(BugCompleteNPE)
		e.Throw(rn.rm, "NullPointerException@AbstractYarnScheduler.completeContainer",
			"node "+string(cm.node)+" not in nodes map", false)
		// The RM cannot handle the exception and aborts: cluster down.
		rn.Fail("ResourceManager aborted: NullPointerException in completeContainer")
		e.Abort(rn.rm, "RMFatal@ResourceManager", "scheduler thread died")
		return
	}
	sn.dropContainer(cm.containerID)
	sn.resources++
	rn.Logger(rn.rm, "SchedulerNode").Info("Container ", cm.containerID, " completed on ", cm.node)
}

// updateNodeStats carries YARN-5918: the job-stats path reads resources
// of a node that may just have been removed.
func (rn *run) updateNodeStats(nm sim.NodeID) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.updateNodeStats")()
	pb.PreRead(rn.rm, PtStatsGet, string(nm))
	sn := rn.nodes[nm]
	if sn == nil {
		if rn.r.FixJobStatsNPE {
			rn.Logger(rn.rm, "JobImpl").Error("Skipping stats of removed node ", nm)
			return
		}
		rn.Witness(BugJobStatsNPE)
		e.Throw(rn.rm, "NullPointerException@JobImpl.updateNodeStats",
			"node "+string(nm)+" removed", false)
		rn.Fail("Job failed: NullPointerException in job-stats thread")
		return
	}
	rn.Logger(rn.rm, "JobImpl").Debug("Node ", nm, " has ", sn.resources, " units free")
}

// allocate carries YARN-9238: the appCache existence check passes, but
// currentAttempt may already point at the new, uninitialized attempt.
func (rn *run) allocate(am *allocMsg) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.allocate")()
	// #0 in the model: the appCache read, sanity-checked.
	if !rn.appCache[am.attemptID] {
		return
	}
	// YARN-9238 window: the attempt's node may leave right here.
	pb.PreRead(rn.rm, PtAllocateCur, am.attemptID)
	att := rn.app.currentAttempt
	if att.id != am.attemptID {
		if rn.r.FixRemovedAttempt {
			rn.Logger(rn.rm, "OpportunisticAMSProcessor").Error(
				"Calling allocate on removed application attempt ", am.attemptID)
			return
		}
		rn.Witness(BugRemovedAttempt)
		e.Throw(rn.rm, "InvalidStateTransition@RMAppAttemptImpl",
			"ALLOCATE at "+att.state+" for "+att.id, false)
		rn.Fail("Invalid event: ALLOCATE at NEW for " + att.id)
		rn.app.state = "FAILED"
		return
	}
	// Assign task containers round-robin, starting away from the AM node
	// so task work spreads across the cluster.
	granted := 0
	for i := 0; i < am.asks; i++ {
		sn := rn.pickNode(rn.rrNext)
		if sn == nil {
			break
		}
		rn.rrNext++
		// YARN-9193 window: the picked node may leave the cluster
		// between node selection and container creation; the stale
		// SchedulerNode pointer is used without re-validation.
		pb.PreRead(rn.rm, PtAllocNode, string(sn.id))
		if _, stillThere := rn.nodes[sn.id]; !stillThere {
			if rn.r.FixRemovedNode {
				rn.Logger(rn.rm, "CapacityScheduler").Error(
					"Skipping allocation on removed node ", sn.id)
				continue
			}
			rn.Witness(BugRemovedNode)
			e.Throw(rn.rm, "InvalidAllocation@CapacityScheduler.allocate",
				"container allocated on removed node "+string(sn.id), false)
			rn.Fail("Allocated container on removed node " + string(sn.id))
			return
		}
		cid := rn.newContainer(sn, att)
		granted++
		rn.Eng.Send(rn.rm, rn.amNode, "am", "containerGranted", &contMsg{containerID: cid, node: sn.id})
	}
	if granted < am.asks {
		// Ask again for the remainder once resources free up.
		rn.Eng.AfterKeyed(rn.rm, 500*sim.Millisecond, keyAlloc,
			allocMsg{attemptID: am.attemptID, asks: am.asks - granted})
	}
}

// ---- restart / rejoin (cluster.Rejoiner) ----

// Rejoin implements cluster.Rejoiner: a restarted node re-creates its
// services and performs the system's re-registration protocol.
func (rn *run) Rejoin(id sim.NodeID) {
	if id == rn.rm {
		rn.rejoinRM()
		return
	}
	rn.rejoinNM(id)
}

// rejoinNM restarts the NodeManager process: the service and the
// shutdown script come back, then the NM re-registers with the RM and
// resumes heartbeats, exactly like a first boot.
func (rn *run) rejoinNM(id sim.NodeID) {
	e := rn.Eng
	rn.wireNM(e.Node(id))
	rn.Logger(id, "NodeManager").Info("NodeManager on ", id, " restarted, re-registering with RM")
	e.AfterKeyed(id, 10*sim.Millisecond, keyBoot, nil)
}

// rejoinRM restarts the ResourceManager: the scheduler service comes
// back, the known NMs are recovered from the state store (the nodes map
// survives the process in this model) and re-tracked by a fresh liveness
// monitor, the web endpoint resumes, and a pending, never-launched
// attempt is re-driven. The master is its own registry, so the recovery
// bookkeeping marks it rejoined (and working) once it serves again.
func (rn *run) rejoinRM() {
	e := rn.Eng
	rn.wireRM(e.Node(rn.rm))
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "rm", Kind: "heartbeat"}
	rn.lm = sim.NewLivenessMonitor(e, rn.rm, hb, rn.nmLost)
	ids := make([]string, 0, len(rn.nodes))
	for id := range rn.nodes {
		ids = append(ids, string(id))
	}
	sortStrings(ids)
	for _, id := range ids {
		rn.lm.Track(sim.NodeID(id))
	}
	rn.Logger(rn.rm, "ResourceManager").Info("ResourceManager restarted, recovered ", len(rn.nodes), " nodes from the state store")
	rn.NoteRejoin(rn.rm)
	rn.NoteWork(rn.rm)
	if rn.app != nil && rn.app.state != "FINISHED" && rn.app.state != "FAILED" &&
		rn.app.currentAttempt != nil && rn.app.currentAttempt.state == "NEW" {
		e.AfterKeyed(rn.rm, 200*sim.Millisecond, keyLaunchAM, nil)
	}
	rn.curl()
}

// Healed implements cluster.Healer: when a cut closes, any NodeManager
// the RM deactivated during the partition must re-run the registration
// protocol — the RM's liveness monitor no longer tracks it, so resumed
// heartbeats alone would never re-admit it. All NMs are checked, not
// just the isolated set: an RM-side cut deactivates nodes that were
// never themselves isolated.
func (rn *run) Healed(isolated []sim.NodeID) {
	e := rn.Eng
	if !e.Node(rn.rm).Alive() {
		return
	}
	for _, nm := range rn.nms {
		if _, ok := rn.nodes[nm]; ok {
			continue
		}
		if n := e.Node(nm); n == nil || !n.Alive() {
			continue
		}
		e.AfterKeyed(nm, 10*sim.Millisecond, keyBoot, nil)
	}
}

// CloneRun implements cluster.Run.CloneRun; see the toysys template for the
// four-step recipe. The tasks slab backs the maps pointers, so both are
// rebuilt together; rn.app aliases an entry of rn.apps and the clone
// preserves that aliasing.
func (rn *run) CloneRun(cc cluster.CloneContext) cluster.Run {
	rn2 := &run{
		Base:     rn.CloneBase(cc),
		r:        rn.r,
		rm:       rn.rm,
		nms:      append([]sim.NodeID(nil), rn.nms...),
		nodes:    make(map[sim.NodeID]*schedNode, len(rn.nodes)),
		apps:     make(map[string]*application, len(rn.apps)),
		appCache: make(map[string]bool, len(rn.appCache)),
		nextCont: rn.nextCont,
		amNode:   rn.amNode,
		amUp:     rn.amUp,
		commits:  make(map[string]string, len(rn.commits)),
		rrNext:   rn.rrNext,
	}
	for id, sn := range rn.nodes {
		rn2.nodes[id] = &schedNode{
			id:         sn.id,
			containers: append([]string(nil), sn.containers...),
			resources:  sn.resources,
		}
	}
	for id, app := range rn.apps {
		cp := *app
		if app.currentAttempt != nil {
			att := *app.currentAttempt
			cp.currentAttempt = &att
		}
		rn2.apps[id] = &cp
		if rn.app == app {
			rn2.app = &cp
		}
	}
	for id, v := range rn.appCache {
		rn2.appCache[id] = v
	}
	if len(rn.tasks) > 0 {
		rn2.tasks = make([]mapTask, len(rn.tasks))
		copy(rn2.tasks, rn.tasks)
		rn2.maps = make([]*mapTask, len(rn.maps))
		for i := range rn2.tasks {
			rn2.maps[i] = &rn2.tasks[i]
		}
	}
	for t, a := range rn.commits {
		rn2.commits[t] = a
	}

	e2 := cc.Eng
	rn2.wireRM(e2.Node(rn2.rm))
	for _, id := range rn2.nms {
		rn2.wireNM(e2.Node(id))
	}
	if rn2.amUp {
		// The AM endpoint is registered dynamically by amInit; restore it
		// only while an AM is actually serving.
		e2.Node(rn2.amNode).Register("am", sim.ServiceFunc(rn2.amService))
	}
	rn2.lm = rn.lm.CloneTo(e2, cc.Remap, rn2.nmLost)
	return rn2
}

func (rn *run) appDone(appID string) {
	defer rn.Cfg.Probe.Enter(rn.rm, "yarn.resourcemanager.ResourceManager.appDone")()
	app := rn.apps[appID]
	if app == nil {
		return
	}
	app.state = "FINISHED"
	if app.currentAttempt != nil {
		app.currentAttempt.state = "FINISHED"
	}
	rn.Logger(rn.rm, "RMAppImpl").Info("Application ", appID, " completed successfully")
	rn.Succeed()
}
