// Package cluster defines the harness contract between the CrashTuner
// pipeline and the simulated systems under test, plus shared scaffolding
// the five system implementations build on.
package cluster

import (
	"sort"

	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Status is the workload outcome of a run.
type Status int

// Workload statuses.
const (
	Running   Status = iota // workload not finished
	Succeeded               // workload completed successfully
	Failed                  // workload aborted / job failure
)

func (s Status) String() string {
	switch s {
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	default:
		return "running"
	}
}

// Config parameterizes one run of a system under test.
type Config struct {
	// Seed drives every random decision of the run.
	Seed int64
	// Scale multiplies the workload size (the profiler doubles it until
	// the dynamic crash points reach a fixed point, §3.1.3).
	Scale int
	// Probe receives the instrumentation callbacks; may be inert.
	Probe *probe.Probe
	// Logs receives every log record of the run.
	Logs *dslog.Root
}

// Runner builds fresh runs of one system under test.
type Runner interface {
	// Name is the system name ("yarn", "hdfs", ...).
	Name() string
	// Workload names the driving workload (Table 4: WordCount+curl, ...).
	Workload() string
	// Program returns the system's IR model. The program is built once
	// per process (a package-level sync.OnceValue) and shared by every
	// caller and every Runner of the system, so it must not depend on
	// Runner fields and must not be mutated: it is immutable after
	// Build, and ir.Program.AddClass panics on it.
	Program() *ir.Program
	// Hosts returns the configured hostnames of the cluster.
	Hosts() []string
	// NewRun constructs a fresh cluster plus workload.
	NewRun(cfg Config) Run
}

// Run is one constructed instance: start the workload, drive the engine,
// then inspect the outcome.
type Run interface {
	// Engine exposes the simulator for driving and fault injection.
	Engine() *sim.Engine
	// Start schedules the workload.
	Start()
	// Status reports the workload outcome so far.
	Status() Status
	// FailureReason describes a Failed status.
	FailureReason() string
	// Witnesses returns the seeded-bug identifiers whose buggy code paths
	// actually fired during the run (used to attribute detections to the
	// paper's bug IDs; the oracle itself never reads these).
	Witnesses() []string
	// CloneRun rebuilds the run's model on a cloned engine, so injection
	// campaigns can fork the run mid-flight (use the package-level Clone
	// helper, which deep-copies the engine first). CloneRun must:
	//
	//   - deep-copy every piece of mutable model state (maps, slices,
	//     structs the handlers mutate) so the source and clone never
	//     share it;
	//   - re-register all services, keyed-timer handlers and
	//     shutdown/death hooks on cc.Eng's nodes (a cloned engine carries
	//     none), including any registered dynamically mid-run (e.g. a
	//     service that only exists once some workload step reached it);
	//   - re-create liveness monitors via their CloneTo so the builtin
	//     LivenessKey timers find them.
	//
	// CloneRun must be strictly read-only on the source run: campaign
	// workers clone one immutable template concurrently. Shared immutable
	// data (the Runner, interned ID tables, message bodies already in
	// flight) may alias.
	//
	// Engine.Clone refuses an engine with a pending closure timer
	// (After/AfterOn/Every), so every timer a system schedules once
	// running must use the keyed API; a run forked at a refused instant
	// falls back to a full replay.
	CloneRun(cc CloneContext) Run
}

// CloneContext carries everything Run.CloneRun needs to rebuild a system
// on a cloned engine: the clone, the timer remap for any outstanding Timer
// handles (in practice only sim.LivenessMonitor.CloneTo consumes it), and
// the Config the cloned run should report — typically the source run's
// identity (Seed, Scale) with a fresh Probe and Logs supplied by the
// forking campaign.
type CloneContext struct {
	Eng   *sim.Engine
	Remap *sim.TimerRemap
	Cfg   Config
}

// Clone forks run at its current instant: the engine state is deep-copied
// and the system rebuilds its model on top via CloneRun. It reports false
// when the engine has uncopyable pending work (a closure timer), in which
// case the caller falls back to a full run.
func Clone(run Run, cfg Config) (Run, bool) {
	e2, remap, err := run.Engine().Clone()
	if err != nil {
		return nil, false
	}
	return run.CloneRun(CloneContext{Eng: e2, Remap: remap, Cfg: cfg}), true
}

// Rejoiner is implemented by runs whose systems model node restart: after
// sim.Engine.Restart revives the node with an empty service table, Rejoin
// re-creates its services and background work and performs the system's
// re-registration protocol (heartbeat resumption, registry re-announce,
// leader re-election interaction). Use the package-level Restart helper,
// which sequences the engine restart, the recovery bookkeeping and the
// rejoin factory.
type Rejoiner interface {
	Rejoin(id sim.NodeID)
}

// RecoveryInfo tracks what happened to a node after its most recent
// restart; the trigger's recovery oracles read it.
type RecoveryInfo struct {
	// Restarts counts how many times the node was restarted.
	Restarts int
	// Rejoined reports whether the cluster acknowledged the node's
	// re-registration after the most recent restart (for masters:
	// whether the master resumed serving).
	Rejoined bool
	// WorkAssigned reports whether the node received new work after the
	// most recent restart.
	WorkAssigned bool
	// DuplicateIncarnation reports that the cluster accepted a
	// registration for a node it still considered registered, leaving
	// state from the previous incarnation live alongside the new one.
	DuplicateIncarnation bool
}

// RecoveryReporter exposes per-node recovery bookkeeping; Base implements
// it, so every run satisfies the interface via embedding.
type RecoveryReporter interface {
	// Recovery returns the info recorded for a node, and whether the node
	// was ever restarted.
	Recovery(id sim.NodeID) (RecoveryInfo, bool)
	// RestartedNodes returns the IDs of nodes restarted at least once,
	// sorted.
	RestartedNodes() []sim.NodeID
}

// Healer is implemented by runs whose systems model partition recovery:
// after sim.Engine.Heal closes a cut, Healed drives the system's
// reconnection protocol — typically re-initiating registration for every
// alive node the cluster deregistered while it was unreachable. The
// liveness machinery alone cannot do this: monitors ignore heartbeats
// from forgotten nodes, so resumed traffic after a heal never re-admits
// a node by itself. Use the package-level Heal helper, which sequences
// the engine heal, the partition bookkeeping and this hook.
type Healer interface {
	Healed(isolated []sim.NodeID)
}

// PartitionInfo tracks what the run's partitions did; the trigger's
// partition oracles read it.
type PartitionInfo struct {
	// Partitions counts cuts opened during the run.
	Partitions int
	// Isolated is the most recent cut's isolated node set, sorted.
	Isolated []sim.NodeID
	// Healed reports whether the most recent cut was healed.
	Healed bool
	// StaleReads counts messages from formerly-isolated nodes that the
	// cluster rejected as stale (superseded attempts, old epochs).
	StaleReads int
	// SplitBrains counts ownership reassignments made while the previous
	// owner was alive on the far side of an open cut — two alive nodes
	// each believing they own the same work.
	SplitBrains int
}

// partState is the Base's partition bookkeeping: the exported info plus
// the reconnection ledger behind the never-heals oracle.
type partState struct {
	info PartitionInfo
	// pending holds nodes the cluster disconnected (declared lost /
	// deregistered) while a cut separated them; NoteRejoin clears them.
	// Whatever is left after a heal never re-entered the cluster.
	pending map[sim.NodeID]bool
	// wasIso holds every node that was ever on the isolated side of a
	// cut, for gating the stale-read counter after the heal.
	wasIso map[sim.NodeID]bool
}

// PartitionReporter exposes the run's partition bookkeeping; Base
// implements it, so every run satisfies the interface via embedding.
type PartitionReporter interface {
	// Partition returns the recorded info and whether any cut was opened.
	Partition() (PartitionInfo, bool)
	// Unreconnected returns the nodes the cluster disconnected under a
	// cut and never re-admitted, sorted. Callers filter by liveness: a
	// node that died under the cut is not expected back.
	Unreconnected() []sim.NodeID
}

// Base provides the bookkeeping shared by the system implementations;
// embed it in a system's run type.
type Base struct {
	Eng   *sim.Engine
	Cfg   Config
	stat  Status
	why   string
	wits  map[string]bool
	recov map[sim.NodeID]*RecoveryInfo
	part  *partState
}

// CloneBase deep-copies the shared bookkeeping onto a cloned engine; the
// system's CloneRun embeds the result in its cloned run value.
func (b *Base) CloneBase(cc CloneContext) *Base {
	b2 := &Base{
		Eng:  cc.Eng,
		Cfg:  cc.Cfg,
		stat: b.stat,
		why:  b.why,
		wits: make(map[string]bool, len(b.wits)),
	}
	for id, v := range b.wits {
		b2.wits[id] = v
	}
	if b.recov != nil {
		b2.recov = make(map[sim.NodeID]*RecoveryInfo, len(b.recov))
		for id, ri := range b.recov {
			cp := *ri
			b2.recov[id] = &cp
		}
	}
	if b.part != nil {
		ps := &partState{
			info:    b.part.info,
			pending: make(map[sim.NodeID]bool, len(b.part.pending)),
			wasIso:  make(map[sim.NodeID]bool, len(b.part.wasIso)),
		}
		ps.info.Isolated = append([]sim.NodeID(nil), b.part.info.Isolated...)
		for id := range b.part.pending {
			ps.pending[id] = true
		}
		for id := range b.part.wasIso {
			ps.wasIso[id] = true
		}
		b2.part = ps
	}
	return b2
}

// NewBase initializes the shared state with a fresh engine.
func NewBase(cfg Config) *Base {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.Probe == nil {
		cfg.Probe = probe.New()
	}
	if cfg.Logs == nil {
		cfg.Logs = dslog.NewRoot()
	}
	return &Base{
		Eng:  sim.NewEngine(cfg.Seed),
		Cfg:  cfg,
		wits: make(map[string]bool),
	}
}

// Engine returns the simulator engine.
func (b *Base) Engine() *sim.Engine { return b.Eng }

// Status returns the workload status.
func (b *Base) Status() Status { return b.stat }

// FailureReason returns the reason recorded with Fail.
func (b *Base) FailureReason() string { return b.why }

// Succeed marks the workload finished successfully (unless already
// failed).
func (b *Base) Succeed() {
	if b.stat == Running {
		b.stat = Succeeded
	}
}

// Fail marks the workload failed with a reason; the first failure wins.
func (b *Base) Fail(reason string) {
	if b.stat != Failed {
		b.stat = Failed
		b.why = reason
	}
}

// Witness records that the buggy code path of a seeded bug fired.
func (b *Base) Witness(bugID string) { b.wits[bugID] = true }

// Witnesses returns the sorted witnessed bug IDs.
func (b *Base) Witnesses() []string {
	out := make([]string, 0, len(b.wits))
	for id := range b.wits {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// noteRestart records a restart and resets the per-life recovery flags;
// the Restart helper calls it before invoking the rejoin factory.
func (b *Base) noteRestart(id sim.NodeID) {
	if b.recov == nil {
		b.recov = make(map[sim.NodeID]*RecoveryInfo)
	}
	ri := b.recov[id]
	if ri == nil {
		ri = &RecoveryInfo{}
		b.recov[id] = ri
	}
	ri.Restarts++
	ri.Rejoined = false
	ri.WorkAssigned = false
}

// NoteRejoin records that the cluster acknowledged the node's
// re-registration; a no-op for nodes that were never restarted, so
// first-boot registration paths can call it unconditionally. It also
// settles the partition-reconnection ledger: a node re-admitted after
// being disconnected under a cut is no longer pending.
func (b *Base) NoteRejoin(id sim.NodeID) {
	if ri := b.recov[id]; ri != nil {
		ri.Rejoined = true
	}
	if b.part != nil {
		delete(b.part.pending, id)
	}
}

// NoteWork records that the node received new work; a no-op for nodes
// that were never restarted.
func (b *Base) NoteWork(id sim.NodeID) {
	if ri := b.recov[id]; ri != nil && ri.Rejoined {
		ri.WorkAssigned = true
	}
}

// NoteDuplicateIncarnation records a duplicate-incarnation anomaly: the
// cluster accepted a registration for a node it still considered
// registered. A no-op for nodes that were never restarted.
func (b *Base) NoteDuplicateIncarnation(id sim.NodeID) {
	if ri := b.recov[id]; ri != nil {
		ri.DuplicateIncarnation = true
	}
}

// Recovery implements RecoveryReporter.
func (b *Base) Recovery(id sim.NodeID) (RecoveryInfo, bool) {
	if ri := b.recov[id]; ri != nil {
		return *ri, true
	}
	return RecoveryInfo{}, false
}

// RestartedNodes implements RecoveryReporter.
func (b *Base) RestartedNodes() []sim.NodeID {
	out := make([]sim.NodeID, 0, len(b.recov))
	for id := range b.recov {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// notePartition opens the partition ledger for one cut; the Partition
// helper calls it after the engine accepted the cut.
func (b *Base) notePartition(isolated []sim.NodeID) {
	if b.part == nil {
		b.part = &partState{
			pending: make(map[sim.NodeID]bool),
			wasIso:  make(map[sim.NodeID]bool),
		}
	}
	b.part.info.Partitions++
	b.part.info.Isolated = append([]sim.NodeID(nil), isolated...)
	b.part.info.Healed = false
	for _, id := range isolated {
		b.part.wasIso[id] = true
	}
}

// noteHeal marks the most recent cut healed; the Heal helper calls it.
func (b *Base) noteHeal() {
	if b.part != nil {
		b.part.info.Healed = true
	}
}

// NotePartitionLost records that the cluster disconnected a node —
// declared it lost, deregistered it — because an open cut separated
// observer from it. The node enters the reconnection ledger: unless a
// later NoteRejoin re-admits it, the run ends with it orphaned (the
// never-heals oracle). A no-op unless an open cut actually separates
// the two nodes and the lost node is still alive, so the liveness-
// timeout paths of the systems can call it unconditionally.
func (b *Base) NotePartitionLost(observer, lost sim.NodeID) {
	if b.part == nil || !b.Eng.PartitionCuts(observer, lost) {
		return
	}
	if n := b.Eng.Node(lost); n == nil || !n.Alive() {
		return
	}
	b.part.pending[lost] = true
}

// NoteSplitBrain records an ownership reassignment made while the
// previous owner is alive on the far side of an open cut: two alive
// nodes now each believe they own the same work. A no-op unless an open
// cut actually separates observer from owner and the owner is alive, so
// reassignment paths can call it unconditionally — on a crash or a
// graceful shutdown the old owner is dead and nothing is recorded.
func (b *Base) NoteSplitBrain(observer, owner sim.NodeID) {
	if b.part == nil || !b.Eng.PartitionCuts(observer, owner) {
		return
	}
	if n := b.Eng.Node(owner); n == nil || !n.Alive() {
		return
	}
	b.part.info.SplitBrains++
}

// NoteStaleRead records that observer rejected state from a node a cut
// once separated it from — a superseded attempt, an old epoch —
// typically when held or resumed traffic lands after the heal. With
// single-node cuts, observer and from were separated iff either was in
// the isolated set, so the gate checks both ends; a no-op when no cut
// ever involved the pair, so stale-rejection paths can call it
// unconditionally.
func (b *Base) NoteStaleRead(observer, from sim.NodeID) {
	if b.part == nil {
		return
	}
	if !b.part.wasIso[from] && !b.part.wasIso[observer] {
		return
	}
	b.part.info.StaleReads++
}

// Partition implements PartitionReporter.
func (b *Base) Partition() (PartitionInfo, bool) {
	if b.part == nil {
		return PartitionInfo{}, false
	}
	return b.part.info, true
}

// Unreconnected implements PartitionReporter.
func (b *Base) Unreconnected() []sim.NodeID {
	if b.part == nil {
		return nil
	}
	out := make([]sim.NodeID, 0, len(b.part.pending))
	for id := range b.part.pending {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// restartRecorder is how the Restart helper reaches the embedded Base's
// unexported bookkeeping through the Run interface.
type restartRecorder interface{ noteRestart(id sim.NodeID) }

// partitionRecorder is restartRecorder's twin for the partition ledger.
type partitionRecorder interface {
	notePartition(isolated []sim.NodeID)
	noteHeal()
}

// Restart revives a dead node of the run and drives the system's rejoin
// protocol: the engine retires the previous incarnation, the recovery
// bookkeeping starts a fresh life, and the run's Rejoin factory
// re-creates the node's services. It returns false if the run's system
// does not implement Rejoiner or the node is unknown or still alive.
func Restart(run Run, id sim.NodeID) bool {
	rj, ok := run.(Rejoiner)
	if !ok {
		return false
	}
	if !run.Engine().Restart(id) {
		return false
	}
	if rr, ok := run.(restartRecorder); ok {
		rr.noteRestart(id)
	}
	rj.Rejoin(id)
	return true
}

// Partition opens a network cut on the run, isolating the given nodes
// from the rest of the cluster, and opens the run's partition ledger.
// It returns false if the engine refused the cut (one is already open,
// or no listed node exists).
func Partition(run Run, isolated []sim.NodeID, mode sim.PartitionMode, delay sim.Time) bool {
	if !run.Engine().Partition(isolated, mode, delay) {
		return false
	}
	if pr, ok := run.(partitionRecorder); ok {
		pr.notePartition(isolated)
	}
	return true
}

// Heal closes the run's open cut and drives the system's reconnection
// protocol: the engine re-sends any held messages, the ledger marks the
// cut healed, and the run's Healed hook (if the system implements
// Healer) re-admits nodes the cluster disconnected while they were
// unreachable. Returns false if no cut was open.
func Heal(run Run) bool {
	iso := run.Engine().Heal()
	if iso == nil {
		return false
	}
	if pr, ok := run.(partitionRecorder); ok {
		pr.noteHeal()
	}
	if h, ok := run.(Healer); ok {
		h.Healed(iso)
	}
	return true
}

// Logger returns a component logger on a node of this run.
func (b *Base) Logger(node sim.NodeID, component string) *dslog.Logger {
	return b.Cfg.Logs.Logger(b.Eng, node, component)
}

// Drive starts the run's workload and dispatches events until the
// workload leaves the Running state, the event queue drains, or the
// deadline passes. Periodic background work (heartbeats, monitors) keeps
// the queue non-empty, so runs of healthy systems end via the status
// check and hung runs end at the deadline.
func Drive(run Run, deadline sim.Time) sim.RunResult {
	e := run.Engine()
	e.OnStep(func(sim.Time) {
		if run.Status() != Running {
			e.Stop()
		}
	})
	run.Start()
	return e.Run(deadline)
}

// DriveResume is Drive for a cloned run: the workload is already mid-
// flight inside the copied engine state, so it installs the status check
// and dispatches without calling Start again.
func DriveResume(run Run, deadline sim.Time) sim.RunResult {
	e := run.Engine()
	e.OnStep(func(sim.Time) {
		if run.Status() != Running {
			e.Stop()
		}
	})
	return e.Run(deadline)
}
