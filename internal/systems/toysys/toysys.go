// Package toysys is a deliberately small distributed system used to test
// the CrashTuner pipeline end-to-end and to document how a system under
// test is authored (see examples/newsystem).
//
// The system is a master/worker task runner with a two-phase commit
// protocol carrying two genuine crash-recovery bugs that mirror studied
// bugs from the paper:
//
//   - TOY-1 (pre-read, mirrors YARN-5918/YARN-9164): the master's
//     commitPending handler looks up the sender in its workers map and
//     dereferences the result without a nil check. If the worker leaves
//     the cluster right before the read, the master hits the nil entry
//     and the job aborts.
//   - TOY-2 (post-write, mirrors MR-3858): the master records the
//     committing attempt in its pending map. If the worker crashes right
//     after that write, the recovery path re-runs the task under a new
//     attempt, but the stale pending entry makes every future commit
//     check fail, so the job never finishes.
package toysys

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// Point IDs of the instrumented sites; they must match the IR model in
// model.go (instruction indexes are assigned in declaration order).
const (
	PtRegisterPut = ir.PointID("toy.Master.registerWorker#0") // post-write workers.put
	PtCommitGet   = ir.PointID("toy.Master.commitPending#0")  // pre-read workers.get (TOY-1)
	PtCommitPut   = ir.PointID("toy.Master.commitPending#1")  // post-write pending.put (TOY-2)
	PtDoneRemove  = ir.PointID("toy.Master.doneCommit#1")     // post-write pending.remove
	PtLostRemove  = ir.PointID("toy.Master.handleLost#0")     // post-write workers.remove
)

// Seeded bug identifiers.
const (
	BugPreRead   = "TOY-1"
	BugPostWrite = "TOY-2"
)

// Keyed-timer keys. Everything the system schedules mid-run goes through
// sim.AfterKeyed/EveryKeyed with one of these instead of a closure, which
// is what makes the run cloneable (cluster.Run.CloneRun): pending timers are
// (key, arg) descriptors the engine can deep-copy, and the handlers are
// plain methods re-registered by the wiring helpers (wireMaster /
// wireWorker) on whichever engine the run currently lives on — fresh
// (NewRun), rejoined after a restart (Rejoin) or forked mid-run
// (CloneRun). Args must be immutable once scheduled: use value types or
// ids that the handler resolves against current model state.
const (
	keyBoot      = "toy.boot"      // worker: register with the master, start heartbeats
	keyAssignAll = "toy.assignAll" // master: initial assignment sweep
	keyAssign    = "toy.assign"    // master: (re)assign one task; arg is the task id
	keyResume    = "toy.resume"    // master: post-restart re-drive of incomplete tasks
	keyWork      = "toy.work"      // worker: task work finished, send commitPending; arg is the commitMsg
	keyDone      = "toy.done"      // worker: send phase-two doneCommit; arg is the commitMsg
)

// Runner builds toy-system runs.
type Runner struct {
	// Workers is the number of worker nodes (default 2).
	Workers int
	// FixPreRead patches TOY-1 (adds the missing nil check).
	FixPreRead bool
	// FixPostWrite patches TOY-2 (clears pending state on reassignment).
	FixPostWrite bool
}

// Name implements cluster.Runner.
func (r *Runner) Name() string { return "toysys" }

// Workload implements cluster.Runner.
func (r *Runner) Workload() string { return "TaskRun" }

// Hosts implements cluster.Runner.
func (r *Runner) Hosts() []string {
	hosts := []string{"node0"}
	for i := 1; i <= r.workers(); i++ {
		hosts = append(hosts, fmt.Sprintf("node%d", i))
	}
	return hosts
}

func (r *Runner) workers() int {
	if r.Workers < 1 {
		return 2
	}
	return r.Workers
}

// task tracks one unit of work on the master.
type task struct {
	id       string
	attempt  int // current attempt number
	worker   sim.NodeID
	complete bool
}

func (t *task) attemptID() string { return fmt.Sprintf("attempt_%s_%d", t.id, t.attempt) }

// workerInfo is the master's view of a worker.
type workerInfo struct {
	id    sim.NodeID
	slots int
}

// run is one toy-system instance.
type run struct {
	*cluster.Base
	r       *Runner
	master  sim.NodeID
	workers []sim.NodeID
	// Master state.
	registered map[sim.NodeID]*workerInfo
	pending    map[string]string // taskID -> attemptID (the TOY-2 state)
	tasks      []*task
	lm         *sim.LivenessMonitor
	started    bool
	rrNext     int
}

// NewRun implements cluster.Runner.
func (r *Runner) NewRun(cfg cluster.Config) cluster.Run {
	b := cluster.NewBase(cfg)
	rn := &run{
		Base:       b,
		r:          r,
		registered: make(map[sim.NodeID]*workerInfo),
		pending:    make(map[string]string),
	}
	e := b.Eng
	master := e.AddNode("node0", 7000)
	rn.master = master.ID
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "master", Kind: "heartbeat"}
	rn.lm = sim.NewLivenessMonitor(e, rn.master, hb, rn.handleLost)
	rn.wireMaster(master)

	for i := 1; i <= r.workers(); i++ {
		w := e.AddNode(fmt.Sprintf("node%d", i), 7000+i)
		rn.workers = append(rn.workers, w.ID)
		rn.wireWorker(w)
	}
	return rn
}

// wireMaster attaches the master's service and keyed-timer handlers to a
// node. Shared by NewRun, Rejoin and CloneRun so the three ways a run can
// acquire an engine cannot drift; this is the wiring half of the keyed-
// timer template (the scheduling half is the keyXxx sites below).
func (rn *run) wireMaster(n *sim.Node) {
	n.Register("master", sim.ServiceFunc(rn.masterService))
	n.Handle(keyAssignAll, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.assignAll() })
	n.Handle(keyAssign, func(e *sim.Engine, _ sim.NodeID, arg any) {
		// The arg is the task id, not the *task: the handler resolves it
		// against current state, so a clone's handler finds the clone's
		// task, never the source's.
		if t := rn.taskByID(arg.(string)); t != nil {
			rn.assign(t)
		}
	})
	n.Handle(keyResume, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.resumeTasks() })
}

// wireWorker attaches a worker's service, keyed handlers and shutdown
// hook to a node; shared by NewRun, Rejoin and CloneRun like wireMaster.
func (rn *run) wireWorker(n *sim.Node) {
	id := n.ID
	n.Register("worker", sim.ServiceFunc(rn.workerService))
	n.Handle(keyBoot, func(e *sim.Engine, self sim.NodeID, _ any) {
		// The worker-side sighting of the master gives the partition
		// tracker a second per-node view (internal/partition): until the
		// master's own view records this worker back, registration is
		// asymmetric — the consistency-guided injection window.
		rn.Logger(self, "Worker").Info("Worker ", self, " connecting to master ", rn.master)
		e.Send(self, rn.master, "master", "register", nil)
		sim.StartHeartbeats(e, self, rn.master, sim.HeartbeatConfig{
			Period: sim.Second, Timeout: 3 * sim.Second, Service: "master", Kind: "heartbeat",
		})
	})
	n.Handle(keyWork, func(e *sim.Engine, self sim.NodeID, arg any) {
		cm := arg.(commitMsg)
		e.Send(self, rn.master, "master", "commitPending", cm)
		e.AfterKeyed(self, 300*sim.Millisecond, keyDone, cm)
	})
	n.Handle(keyDone, func(e *sim.Engine, self sim.NodeID, arg any) {
		e.Send(self, rn.master, "master", "doneCommit", arg.(commitMsg))
	})
	// The shutdown script deregisters synchronously with the master,
	// emulating the paper's "shutdown RPC followed by a wait": by the
	// time control returns, the cluster has processed the departure.
	n.OnShutdown(func(e *sim.Engine) { rn.deregister(id) })
}

func (rn *run) taskByID(id string) *task {
	for _, t := range rn.tasks {
		if t.id == id {
			return t
		}
	}
	return nil
}

// Start implements cluster.Run.
func (rn *run) Start() {
	e := rn.Eng
	for _, w := range rn.workers {
		e.AfterKeyed(w, 10*sim.Millisecond, keyBoot, nil)
	}
	nTasks := 4 * rn.Cfg.Scale
	for i := 0; i < nTasks; i++ {
		rn.tasks = append(rn.tasks, &task{id: fmt.Sprintf("task_%d", i)})
	}
}

// masterService dispatches master-side RPCs.
func (rn *run) masterService(e *sim.Engine, m sim.Message) {
	switch m.Kind {
	case "heartbeat":
		rn.lm.Beat(m.From)
	case "register":
		rn.registerWorker(m.From)
	case "deregister":
		rn.deregister(m.From)
	case "commitPending":
		rn.commitPending(m.From, m.Body.(commitMsg))
	case "doneCommit":
		rn.doneCommit(m.From, m.Body.(commitMsg))
	}
}

type commitMsg struct {
	taskID    string
	attemptID string
}

func (rn *run) registerWorker(w sim.NodeID) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.master, "toy.Master.registerWorker")()
	rn.registered[w] = &workerInfo{id: w, slots: 1}
	pb.PostWrite(rn.master, PtRegisterPut, string(w))
	rn.lm.Track(w)
	rn.NoteRejoin(w)
	rn.Logger(rn.master, "Master").Info("Worker registered as ", w)
	if !rn.started && len(rn.registered) == len(rn.workers) {
		rn.started = true
		e.AfterKeyed(rn.master, 10*sim.Millisecond, keyAssignAll, nil)
	}
}

// deregister is the graceful-departure path (shutdown script).
func (rn *run) deregister(w sim.NodeID) {
	if _, ok := rn.registered[w]; !ok {
		return
	}
	defer rn.Cfg.Probe.Enter(rn.master, "toy.Master.handleLost")()
	delete(rn.registered, w)
	rn.Cfg.Probe.PostWrite(rn.master, PtLostRemove, string(w))
	rn.lm.Forget(w)
	rn.Logger(rn.master, "Master").Warn("Worker ", w, " lost, reassigning")
	rn.reassignFrom(w)
}

// handleLost is the liveness-timeout path (crash detection). When the
// silence is a network cut rather than a death, the departed worker is
// alive on the far side: record it in the reconnection ledger.
func (rn *run) handleLost(w sim.NodeID) {
	if !rn.Eng.Node(rn.master).Alive() {
		return
	}
	rn.NotePartitionLost(rn.master, w)
	defer rn.Cfg.Probe.Enter(rn.master, "toy.Master.handleLost")()
	delete(rn.registered, w)
	rn.Cfg.Probe.PostWrite(rn.master, PtLostRemove, string(w))
	rn.Logger(rn.master, "Master").Warn("Worker ", w, " lost, reassigning")
	rn.reassignFrom(w)
}

// reassignFrom re-runs every incomplete task of a departed worker under a
// fresh attempt. TOY-2: the stale pending entry of an in-flight commit is
// NOT cleared here — that is the bug.
func (rn *run) reassignFrom(w sim.NodeID) {
	for _, t := range rn.tasks {
		if t.complete || t.worker != w {
			continue
		}
		// If w is alive across an open cut, it is still running this
		// task: the reassignment creates a second owner (split brain).
		rn.NoteSplitBrain(rn.master, w)
		if rn.r.FixPostWrite {
			delete(rn.pending, t.id) // the MR-3858 fix
		}
		t.worker = ""
		rn.Eng.AfterKeyed(rn.master, 100*sim.Millisecond, keyAssign, t.id)
	}
}

func (rn *run) assignAll() {
	for _, t := range rn.tasks {
		rn.assign(t)
	}
}

// assign places a task on the next alive worker (the read of the workers
// map here is sanity-checked, so it is not a crash point).
func (rn *run) assign(t *task) {
	if t.complete {
		return
	}
	defer rn.Cfg.Probe.Enter(rn.master, "toy.Master.assignTask")()
	var target *workerInfo
	for i := 0; i < len(rn.workers); i++ {
		cand := rn.workers[(rn.rrNext+i)%len(rn.workers)]
		if wi, ok := rn.registered[cand]; ok {
			target = wi
			rn.rrNext = (rn.rrNext + i + 1) % len(rn.workers)
			break
		}
	}
	if target == nil {
		// No workers: retry until one registers (or the run times out).
		rn.Eng.AfterKeyed(rn.master, 500*sim.Millisecond, keyAssign, t.id)
		return
	}
	t.attempt++
	t.worker = target.id
	rn.NoteWork(target.id)
	rn.Logger(rn.master, "Master").Info("Assigned attempt ", t.attemptID(), " to worker ", target.id)
	rn.Eng.Send(rn.master, target.id, "worker", "runTask", commitMsg{taskID: t.id, attemptID: t.attemptID()})
}

// ---- restart / rejoin (cluster.Rejoiner) ----

// Rejoin implements cluster.Rejoiner; it is also the template for
// authoring recovery in a new system (see examples/newsystem): re-attach
// the node's services and hooks to the fresh incarnation, then replay
// the system's own join or recovery protocol.
func (rn *run) Rejoin(id sim.NodeID) {
	e := rn.Eng
	if id == rn.master {
		// The master is its own registry: re-attach its RPC service and
		// keyed handlers (Restart cleared both), build a fresh failure
		// detector over the workers it still remembers (its map survives
		// as "persisted" state) and re-drive incomplete work.
		rn.wireMaster(e.Node(rn.master))
		hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "master", Kind: "heartbeat"}
		rn.lm = sim.NewLivenessMonitor(e, rn.master, hb, rn.handleLost)
		for _, w := range rn.workers {
			if _, ok := rn.registered[w]; ok {
				rn.lm.Track(w)
			}
		}
		rn.Logger(rn.master, "Master").Info("Master restarted, resuming scheduling")
		rn.NoteRejoin(rn.master)
		rn.NoteWork(rn.master)
		e.AfterKeyed(rn.master, 100*sim.Millisecond, keyResume, nil)
		return
	}
	// A worker rejoins through the normal registration path.
	rn.wireWorker(e.Node(id))
	rn.Logger(id, "Worker").Info("Worker ", id, " restarted, re-registering")
	e.AfterKeyed(id, 10*sim.Millisecond, keyBoot, nil)
}

// ---- partition heal (cluster.Healer) ----

// Healed implements cluster.Healer; like Rejoin it is the template for
// authoring partition recovery in a new system (see examples/newsystem).
// A healed cut restores connectivity but not membership: the master's
// failure detector deregistered every worker that went silent behind the
// cut, and it ignores heartbeats from forgotten workers, so resumed
// traffic alone never re-admits them. Re-initiate the join protocol for
// every alive worker the master no longer tracks — the normal keyBoot
// path, exactly as a restarted worker rejoins.
func (rn *run) Healed(isolated []sim.NodeID) {
	e := rn.Eng
	for _, w := range rn.workers {
		if _, ok := rn.registered[w]; ok {
			continue
		}
		if n := e.Node(w); n == nil || !n.Alive() {
			continue
		}
		e.AfterKeyed(w, 10*sim.Millisecond, keyBoot, nil)
	}
}

// ---- mid-run forking (cluster.Run.CloneRun) ----

// CloneRun implements cluster.Run.CloneRun; like Rejoin, it is the template
// for authoring cloning in a new system (see examples/newsystem). The
// recipe:
//
//  1. CloneBase copies the shared bookkeeping onto the cloned engine.
//  2. Deep-copy every piece of mutable model state — here the registered
//     and pending maps and the task list. Immutable identity (master and
//     worker IDs, the Runner) may be shared.
//  3. Re-wire services, keyed handlers and hooks with the same helpers
//     NewRun and Rejoin use; the cloned engine's nodes carry none.
//  4. Re-create liveness monitors via CloneTo with a callback closing
//     over the NEW run, so the builtin LivenessKey timers (already in the
//     cloned queue) find a monitor that mutates the right model.
//
// CloneRun must not mutate the source run: campaign workers clone one
// immutable template concurrently.
func (rn *run) CloneRun(cc cluster.CloneContext) cluster.Run {
	rn2 := &run{
		Base:       rn.CloneBase(cc),
		r:          rn.r,
		master:     rn.master,
		workers:    append([]sim.NodeID(nil), rn.workers...),
		registered: make(map[sim.NodeID]*workerInfo, len(rn.registered)),
		pending:    make(map[string]string, len(rn.pending)),
		started:    rn.started,
		rrNext:     rn.rrNext,
	}
	for id, wi := range rn.registered {
		cp := *wi
		rn2.registered[id] = &cp
	}
	for k, v := range rn.pending {
		rn2.pending[k] = v
	}
	// One backing array for the task copies keeps the clone's layout as
	// cache-friendly as the original's.
	tasks := make([]task, len(rn.tasks))
	rn2.tasks = make([]*task, len(rn.tasks))
	for i, t := range rn.tasks {
		tasks[i] = *t
		rn2.tasks[i] = &tasks[i]
	}
	e2 := cc.Eng
	rn2.lm = rn.lm.CloneTo(e2, cc.Remap, rn2.handleLost)
	rn2.wireMaster(e2.Node(rn2.master))
	for _, w := range rn2.workers {
		rn2.wireWorker(e2.Node(w))
	}
	return rn2
}

// resumeTasks is the keyResume handler body: after a master restart,
// re-assign every incomplete task whose worker is gone.
func (rn *run) resumeTasks() {
	for _, t := range rn.tasks {
		if t.complete {
			continue
		}
		if _, ok := rn.registered[t.worker]; !ok {
			t.worker = ""
		}
		if t.worker == "" {
			rn.assign(t)
		}
	}
}

// workerService executes a task: work (the keyWork timer), then the
// two-phase commit (keyDone).
func (rn *run) workerService(e *sim.Engine, m sim.Message) {
	if m.Kind != "runTask" {
		return
	}
	e.AfterKeyed(m.To, 500*sim.Millisecond, keyWork, m.Body.(commitMsg))
}

// commitPending handles phase one of the commit. It contains both seeded
// bugs' trigger windows.
func (rn *run) commitPending(from sim.NodeID, cm commitMsg) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.master, "toy.Master.commitPending")()

	// TOY-1 window: the worker may leave the cluster right here.
	pb.PreRead(rn.master, PtCommitGet, string(from))
	wi := rn.registered[from]
	if wi == nil {
		rn.NoteStaleRead(rn.master, from)
		if rn.r.FixPreRead {
			// The fix: validate the worker before using it.
			rn.Logger(rn.master, "Master").Error("Ignoring commit from removed worker ", from)
			return
		}
		// The bug: unchecked dereference of the removed entry.
		rn.Witness(BugPreRead)
		e.Throw(rn.master, "NullPointerException@toy.Master.commitPending",
			fmt.Sprintf("worker %s not in workers map", from), false)
		rn.Fail("NullPointerException in Master.commitPending")
		return
	}
	_ = wi.slots

	// Stale-attempt commit check (this is the check TOY-2 corrupts).
	if prev, ok := rn.pending[cm.taskID]; ok && prev != cm.attemptID {
		rn.NoteStaleRead(rn.master, from)
		rn.Witness(BugPostWrite)
		e.Throw(rn.master, "CommitContention@toy.Master.commitPending",
			fmt.Sprintf("task %s pending under %s, rejecting %s", cm.taskID, prev, cm.attemptID), true)
		rn.Logger(rn.master, "Master").Warn("Rejecting commit of ", cm.attemptID, " for ", cm.taskID)
		// Kill the attempt and re-run the task — which will be rejected
		// again, forever: the job hangs.
		for _, t := range rn.tasks {
			if t.id == cm.taskID && !t.complete {
				t.worker = ""
				e.AfterKeyed(rn.master, 500*sim.Millisecond, keyAssign, t.id)
			}
		}
		return
	}

	rn.pending[cm.taskID] = cm.attemptID
	// TOY-2 window: the committing worker may crash right after this
	// write; the stored attempt is the stale state.
	pb.PostWrite(rn.master, PtCommitPut, cm.attemptID)
	e.Send(rn.master, from, "worker", "commitOK", cm)
}

// doneCommit completes phase two.
func (rn *run) doneCommit(from sim.NodeID, cm commitMsg) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.master, "toy.Master.doneCommit")()
	// Sanity-checked read of pending (not a crash point).
	if rn.pending[cm.taskID] != cm.attemptID {
		rn.NoteStaleRead(rn.master, from)
		rn.Logger(rn.master, "Master").Warn("Stale doneCommit of ", cm.attemptID)
		return
	}
	delete(rn.pending, cm.taskID)
	pb.PostWrite(rn.master, PtDoneRemove, cm.attemptID)
	for _, t := range rn.tasks {
		if t.id == cm.taskID {
			t.complete = true
		}
	}
	rn.Logger(rn.master, "Master").Info("Task ", cm.taskID, " completed by attempt ", cm.attemptID)
	for _, t := range rn.tasks {
		if !t.complete {
			return
		}
	}
	rn.Succeed()
}
