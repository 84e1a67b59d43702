// Package hdfs simulates the HDFS of the paper: a NameNode (NN) tracking
// DataNodes (DNs) and block locations, a replication pipeline, block
// reports, re-replication on node loss, and a webhdfs ("curl") endpoint.
// The workload is TestDFSIO+curl (Table 4): write a set of replicated
// files, read them back, while polling the web UI.
//
// Seeded crash-recovery bugs (Table 5):
//
//   - HDFS-14216 (pre-read, DatanodeInfo): getBlockLocations captures a
//     block location, then dereferences datanodeMap.get(loc) without a
//     nil check. A datanode leaving between the two steps fails the read
//     request ("request fails due to removed node").
//   - HDFS-14372 (pre-read, BPOfferService): a datanode shut down before
//     its BPOfferService finishes registering aborts with an NPE instead
//     of exiting cleanly ("shutdown before register causing abort").
package hdfs

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// Instrumented point IDs; indexes fixed by model.go.
const (
	PtDNPut     = ir.PointID("hdfs.server.namenode.NameNode.registerDatanode#0")  // post-write
	PtDNGet     = ir.PointID("hdfs.server.namenode.NameNode.getBlockLocations#1") // pre-read HDFS-14216
	PtBlockRecv = ir.PointID("hdfs.server.namenode.NameNode.blockReceived#0")     // post-write
	PtDNRemove  = ir.PointID("hdfs.server.namenode.NameNode.removeDatanode#0")    // post-write
	PtBPReg     = ir.PointID("hdfs.server.datanode.DataNode.register#0")          // pre-read HDFS-14372
	PtDNStore   = ir.PointID("hdfs.server.datanode.DataNode.storeBlock#0")        // post-write
)

// Seeded bug identifiers.
const (
	BugRemovedDN   = "HDFS-14216"
	BugUncleanExit = "HDFS-14372"
)

// Runner builds HDFS runs.
type Runner struct {
	// DataNodes is the number of DN nodes (default 2).
	DataNodes int
	// Fix* patch the seeded bugs.
	FixRemovedDN   bool
	FixUncleanExit bool
}

// Name implements cluster.Runner.
func (r *Runner) Name() string { return "hdfs" }

// Workload implements cluster.Runner.
func (r *Runner) Workload() string { return "TestDFSIO+curl" }

// Hosts implements cluster.Runner.
func (r *Runner) Hosts() []string {
	hosts := []string{"node0"}
	for i := 1; i <= r.dns(); i++ {
		hosts = append(hosts, fmt.Sprintf("node%d", i))
	}
	return hosts
}

func (r *Runner) dns() int {
	if r.DataNodes < 1 {
		return 2
	}
	return r.DataNodes
}

const (
	storeTime = 50 * sim.Millisecond
	readTime  = 50 * sim.Millisecond
)

// Keyed-timer keys (see the toysys template): all mid-run scheduling is
// (key, arg) data so the run is cloneable; handlers are registered by
// wireNN / wireDN.
const (
	keyBoot        = "hdfs.boot"        // dn: register + heartbeats; arg true also block-reports
	keyStartWrites = "hdfs.startWrites" // nn: kick off the TestDFSIO write phase
	keyCurl        = "hdfs.curl"        // nn: periodic webhdfs poll (self-rescheduling)
	keyRepl        = "hdfs.repl"        // nn: start one re-replication; arg is a replArg
	keyWrite       = "hdfs.write"       // nn: (re)allocate a file's block; arg is the path
	keyWTimeout    = "hdfs.wtimeout"    // nn: client write-timeout recheck; arg is the path
	keyRead        = "hdfs.read"        // nn: read a file; arg is a readArg
	keyRTimeout    = "hdfs.rtimeout"    // nn: client read-timeout recheck; arg is a readArg
	keyResume      = "hdfs.resume"      // nn: post-restart client re-drive
	keyStore       = "hdfs.store"       // dn: store latency elapsed; arg is the writeMsg
	keyReadDone    = "hdfs.readDone"    // dn: read latency elapsed; arg is the path
	keyWritten     = "hdfs.written"     // dn: client write-ack delivery; arg is the path
)

// replArg parameterizes keyRepl.
type replArg struct {
	blockID     string
	src, target sim.NodeID
}

// readArg parameterizes keyRead / keyRTimeout.
type readArg struct {
	path  string
	tries int
}

// blockInfo is the NN's view of one block.
type blockInfo struct {
	id        string
	file      string
	locations []sim.NodeID
}

// dnInfo is the NN's view of a datanode.
type dnInfo struct {
	id     sim.NodeID
	blocks map[string]bool
}

// dnState is a datanode's own state.
type dnState struct {
	id         sim.NodeID
	registered bool
	blocks     map[string]bool
}

type run struct {
	*cluster.Base
	r  *Runner
	nn sim.NodeID

	// NN state.
	datanodes map[sim.NodeID]*dnInfo
	blocks    map[string]*blockInfo
	files     map[string]string // path -> blockID (one block per file)
	lm        *sim.LivenessMonitor
	nextBlk   int

	// DN state, per node.
	dns map[sim.NodeID]*dnState

	// Client progress.
	nFiles      int
	written     int
	read        int
	fileWritten map[string]bool
	fileRead    map[string]bool
	readPhase   bool
}

// NewRun implements cluster.Runner.
func (r *Runner) NewRun(cfg cluster.Config) cluster.Run {
	b := cluster.NewBase(cfg)
	rn := &run{
		Base:        b,
		r:           r,
		datanodes:   make(map[sim.NodeID]*dnInfo),
		blocks:      make(map[string]*blockInfo),
		files:       make(map[string]string),
		dns:         make(map[sim.NodeID]*dnState),
		fileWritten: make(map[string]bool),
		fileRead:    make(map[string]bool),
	}
	e := b.Eng
	nn := e.AddNode("node0", 8020)
	rn.nn = nn.ID
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "nn", Kind: "heartbeat"}
	rn.lm = sim.NewLivenessMonitor(e, rn.nn, hb, rn.dnLost)
	rn.wireNN(nn)

	for i := 1; i <= r.dns(); i++ {
		dn := e.AddNode(fmt.Sprintf("node%d", i), 50010)
		rn.dns[dn.ID] = &dnState{id: dn.ID, blocks: make(map[string]bool)}
		rn.wireDN(dn)
	}
	return rn
}

func (rn *run) dnLost(n sim.NodeID) { rn.removeDatanode(n, "lost") }

// wireNN attaches the NameNode's service and keyed handlers; shared by
// NewRun, rejoinNN and CloneRun.
func (rn *run) wireNN(n *sim.Node) {
	n.Register("nn", sim.ServiceFunc(rn.nnService))
	n.Handle(keyStartWrites, func(e *sim.Engine, _ sim.NodeID, _ any) {
		for i := 0; i < rn.nFiles; i++ {
			rn.writeFile(fmt.Sprintf("/io/file_%d", i))
		}
	})
	n.Handle(keyCurl, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.curlPoll() })
	n.Handle(keyRepl, func(e *sim.Engine, _ sim.NodeID, arg any) {
		a := arg.(replArg)
		e.Send(rn.nn, a.src, "dn", "copyBlock", copyMsg{blockID: a.blockID, target: a.target})
	})
	n.Handle(keyWrite, func(e *sim.Engine, _ sim.NodeID, arg any) { rn.writeFile(arg.(string)) })
	n.Handle(keyWTimeout, func(e *sim.Engine, _ sim.NodeID, arg any) {
		path := arg.(string)
		if !rn.fileWritten[path] && rn.Status() == cluster.Running {
			rn.Logger(rn.nn, "DFSClient").Warn("Write of ", path, " timed out, re-allocating")
			rn.writeFile(path)
		}
	})
	n.Handle(keyRead, func(e *sim.Engine, _ sim.NodeID, arg any) {
		a := arg.(readArg)
		rn.readFile(a.path, a.tries)
	})
	n.Handle(keyRTimeout, func(e *sim.Engine, _ sim.NodeID, arg any) {
		a := arg.(readArg)
		if !rn.fileRead[a.path] && rn.Status() == cluster.Running {
			rn.readFile(a.path, a.tries+1)
		}
	})
	n.Handle(keyResume, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.resumeClient() })
}

// wireDN attaches a datanode's service, keyed handlers and shutdown
// script; shared by NewRun, rejoinDN and CloneRun.
func (rn *run) wireDN(n *sim.Node) {
	id := n.ID
	n.Register("dn", sim.ServiceFunc(rn.dnService))
	n.Handle(keyBoot, func(e *sim.Engine, self sim.NodeID, arg any) { rn.dnBoot(self, arg.(bool)) })
	n.Handle(keyStore, func(e *sim.Engine, self sim.NodeID, arg any) { rn.dnStoreBlock(self, arg.(writeMsg)) })
	n.Handle(keyReadDone, func(e *sim.Engine, _ sim.NodeID, arg any) { rn.onBlockRead(arg.(string)) })
	n.Handle(keyWritten, func(e *sim.Engine, _ sim.NodeID, arg any) { rn.onFileWritten(arg.(string)) })
	n.OnShutdown(func(e *sim.Engine) { rn.dnShutdown(id) })
}

// dnBoot registers with the NameNode and starts heartbeats; a rejoin boot
// (report=true) also announces surviving replicas with a block report.
func (rn *run) dnBoot(self sim.NodeID, report bool) {
	e := rn.Eng
	e.Send(self, rn.nn, "nn", "register", nil)
	sim.StartHeartbeats(e, self, rn.nn, sim.HeartbeatConfig{
		Period: sim.Second, Timeout: 3 * sim.Second, Service: "nn", Kind: "heartbeat",
	})
	if !report {
		return
	}
	st := rn.dns[self]
	blks := make([]string, 0, len(st.blocks))
	for b := range st.blocks {
		blks = append(blks, b)
	}
	sortStrings(blks)
	for _, b := range blks {
		e.Send(self, rn.nn, "nn", "blockReceived", b)
	}
}

// dnShutdown is the datanode's shutdown script. HDFS-14372: if the
// BPOfferService never finished registering, the shutdown path trips an
// NPE and aborts instead of exiting cleanly.
func (rn *run) dnShutdown(id sim.NodeID) {
	st := rn.dns[id]
	if !st.registered && !rn.r.FixUncleanExit {
		rn.Witness(BugUncleanExit)
		rn.Eng.Throw(id, "NullPointerException@BPOfferService.shutdown",
			"bpRegistration is null during shutdown", false)
		rn.Logger(id, "DataNode").Error("Datanode ", id, " aborted during shutdown")
	}
	st.registered = false
	rn.removeDatanode(id, "shutdown")
}

// Start implements cluster.Run.
func (rn *run) Start() {
	e := rn.Eng
	// Deterministic registration order: every registration lands at the
	// same instant, so queue insertion order — not map iteration — must
	// decide who registers first.
	ids := make([]sim.NodeID, 0, len(rn.dns))
	for id := range rn.dns {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	for _, did := range ids {
		e.AfterKeyed(did, 10*sim.Millisecond, keyBoot, false)
	}
	rn.nFiles = 2 * rn.Cfg.Scale
	e.AfterKeyed(rn.nn, 100*sim.Millisecond, keyStartWrites, nil)
	rn.curl()
}

func (rn *run) curl() {
	rn.Eng.AfterKeyed(rn.nn, 300*sim.Millisecond, keyCurl, nil)
}

// curlPoll is the keyCurl handler body; it reschedules itself.
func (rn *run) curlPoll() {
	if rn.Status() != cluster.Running {
		return
	}
	defer rn.Cfg.Probe.Enter(rn.nn, "hdfs.server.namenode.NameNode.webStatus")()
	if blk, ok := rn.files["/io/file_0"]; ok { // sanity-checked read
		rn.Logger(rn.nn, "NamenodeWebHdfs").Info("Web request for file /io/file_0 served block ", blk)
	}
	rn.Eng.AfterKeyed(rn.nn, 500*sim.Millisecond, keyCurl, nil)
}

// ---- NameNode side ----

func (rn *run) nnService(e *sim.Engine, m sim.Message) {
	switch m.Kind {
	case "heartbeat":
		rn.lm.Beat(m.From)
	case "register":
		rn.registerDatanode(m.From)
	case "blockReceived":
		rn.blockReceived(m.From, m.Body.(string))
	}
}

func (rn *run) registerDatanode(dn sim.NodeID) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.nn, "hdfs.server.namenode.NameNode.registerDatanode")()
	if _, ok := rn.datanodes[dn]; ok {
		// A restarted datanode re-registered; its replica state resets and
		// is repopulated by the block report that follows registration.
		rn.Logger(rn.nn, "DatanodeManager").Warn("Datanode ", dn, " re-registered, resetting replica state")
	}
	rn.datanodes[dn] = &dnInfo{id: dn, blocks: make(map[string]bool)}
	rn.NoteRejoin(dn)
	pb.PostWrite(rn.nn, PtDNPut, string(dn))
	rn.lm.Track(dn)
	rn.Logger(rn.nn, "DatanodeManager").Info("Registered datanode ", dn)
	e := rn.Eng
	e.Send(rn.nn, dn, "dn", "registerAck", nil)
}

// removeDatanode strips a departed datanode from the cluster state and
// re-replicates its blocks.
func (rn *run) removeDatanode(dn sim.NodeID, why string) {
	if !rn.Eng.Node(rn.nn).Alive() {
		return
	}
	di, ok := rn.datanodes[dn]
	if !ok {
		return
	}
	rn.NotePartitionLost(rn.nn, dn)
	if len(di.blocks) > 0 {
		// Re-replicating blocks whose replica still lives on the far side
		// of a cut doubles the authoritative copies: split brain.
		rn.NoteSplitBrain(rn.nn, dn)
	}
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.nn, "hdfs.server.namenode.NameNode.removeDatanode")()
	delete(rn.datanodes, dn)
	pb.PostWrite(rn.nn, PtDNRemove, string(dn))
	rn.lm.Forget(dn)
	rn.Logger(rn.nn, "DatanodeManager").Warn("Datanode ", dn, " ", why, ", re-replicating its blocks")
	blks := make([]string, 0, len(di.blocks))
	for b := range di.blocks {
		blks = append(blks, b)
	}
	sortStrings(blks)
	for _, b := range blks {
		bi := rn.blocks[b]
		if bi == nil {
			continue
		}
		bi.locations = removeLoc(bi.locations, dn)
		rn.scheduleReplication(bi)
	}
}

func removeLoc(locs []sim.NodeID, dn sim.NodeID) []sim.NodeID {
	out := locs[:0]
	for _, l := range locs {
		if l != dn {
			out = append(out, l)
		}
	}
	return out
}

// scheduleReplication copies an under-replicated block from a surviving
// replica to a datanode that lacks it.
func (rn *run) scheduleReplication(bi *blockInfo) {
	if len(bi.locations) == 0 {
		rn.Logger(rn.nn, "BlockManager").Error("Block ", bi.id, " has no replicas left")
		return
	}
	src := bi.locations[0]
	var target sim.NodeID
	for dn := range rn.datanodes {
		if !rn.datanodes[dn].blocks[bi.id] && dn != src {
			if target == "" || dn < target {
				target = dn
			}
		}
	}
	if target == "" {
		return // nowhere to replicate; stay under-replicated
	}
	rn.Logger(rn.nn, "BlockManager").Info("Starting re-replication of ", bi.id, " to ", target)
	rn.Eng.AfterKeyed(rn.nn, 300*sim.Millisecond, keyRepl, replArg{blockID: bi.id, src: src, target: target})
}

type copyMsg struct {
	blockID string
	target  sim.NodeID
}

// blockReceived records a replica location reported by a datanode.
func (rn *run) blockReceived(dn sim.NodeID, blockID string) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.nn, "hdfs.server.namenode.NameNode.blockReceived")()
	bi := rn.blocks[blockID]
	di := rn.datanodes[dn]
	if di == nil {
		rn.NoteStaleRead(rn.nn, dn)
		return
	}
	if bi == nil {
		return
	}
	bi.locations = append(removeLoc(bi.locations, dn), dn)
	di.blocks[blockID] = true
	pb.PostWrite(rn.nn, PtBlockRecv, blockID, string(dn))
	rn.Logger(rn.nn, "BlockManager").Info("Received block ", blockID, " from ", dn)
}

// chooseTargets picks replication targets (alive-checked reads; not a
// crash point).
func (rn *run) chooseTargets(n int) []sim.NodeID {
	defer rn.Cfg.Probe.Enter(rn.nn, "hdfs.server.namenode.NameNode.chooseTargets")()
	var out []sim.NodeID
	ids := make([]sim.NodeID, 0, len(rn.datanodes))
	for dn := range rn.datanodes {
		ids = append(ids, dn)
	}
	sortNodeIDs(ids)
	for _, dn := range ids {
		if len(out) < n {
			out = append(out, dn)
		}
	}
	return out
}

// ---- Client (TestDFSIO) ----

// writeFile allocates a block and drives the write pipeline.
func (rn *run) writeFile(path string) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.nn, "hdfs.server.namenode.NameNode.allocateBlock")()
	targets := rn.chooseTargets(2)
	if len(targets) == 0 {
		e.AfterKeyed(rn.nn, 500*sim.Millisecond, keyWrite, path)
		return
	}
	rn.nextBlk++
	blockID := fmt.Sprintf("blk_%04d", 1000+rn.nextBlk)
	bi := &blockInfo{id: blockID, file: path}
	rn.blocks[blockID] = bi
	rn.files[path] = blockID
	pb.PostWrite(rn.nn, PtBlkAlloc, blockID)
	lg := rn.Logger(rn.nn, "FSNamesystem")
	lg.Info("Allocated ", blockID, " for file ", path, " targets ", targets[0])
	e.Send(rn.nn, targets[0], "dn", "writeBlock", writeMsg{blockID: blockID, path: path, pipeline: targets})
	// Client-side write timeout: a pipeline that dies is retried with a
	// fresh allocation.
	e.AfterKeyed(rn.nn, sim.Second, keyWTimeout, path)
}

type writeMsg struct {
	blockID  string
	path     string
	pipeline []sim.NodeID
	copy     bool // replication copy, not a client write
}

// onFileWritten advances the client: after all writes, read everything
// back.
func (rn *run) onFileWritten(path string) {
	if rn.fileWritten[path] {
		return
	}
	rn.fileWritten[path] = true
	rn.written++
	if rn.written == rn.nFiles && !rn.readPhase {
		rn.readPhase = true
		for i := 0; i < rn.nFiles; i++ {
			rn.readFile(fmt.Sprintf("/io/file_%d", i), 0)
		}
	}
}

// readFile resolves block locations and fetches the data. It carries
// HDFS-14216.
func (rn *run) readFile(path string, tries int) {
	e, pb := rn.Eng, rn.Cfg.Probe
	defer pb.Enter(rn.nn, "hdfs.server.namenode.NameNode.getBlockLocations")()
	// #0: file lookup, sanity-checked.
	blockID, ok := rn.files[path]
	if !ok {
		rn.Fail("read of unknown file " + path)
		return
	}
	bi := rn.blocks[blockID]
	if len(bi.locations) == 0 {
		if tries >= 6 {
			rn.Fail("block " + blockID + " unavailable after retries")
			return
		}
		e.AfterKeyed(rn.nn, sim.Second, keyRead, readArg{path: path, tries: tries + 1})
		return
	}
	loc := bi.locations[0]
	// HDFS-14216 window: the location may leave the cluster right here.
	pb.PreRead(rn.nn, PtDNGet, string(loc), blockID)
	di := rn.datanodes[loc]
	if di == nil {
		rn.NoteStaleRead(rn.nn, loc)
		if rn.r.FixRemovedDN {
			rn.Logger(rn.nn, "FSNamesystem").Warn("Location ", loc, " gone, retrying ", path)
			e.AfterKeyed(rn.nn, 500*sim.Millisecond, keyRead, readArg{path: path, tries: tries + 1})
			return
		}
		rn.Witness(BugRemovedDN)
		e.Throw(rn.nn, "NullPointerException@FSNamesystem.getBlockLocations",
			fmt.Sprintf("datanode %s removed", loc), false)
		rn.Fail("read request failed: NullPointerException resolving " + string(loc))
		return
	}
	e.Send(rn.nn, loc, "dn", "readBlock", readMsg{blockID: blockID, path: path})
	// Client-side read timeout: retry against fresh locations.
	e.AfterKeyed(rn.nn, sim.Second, keyRTimeout, readArg{path: path, tries: tries})
}

type readMsg struct {
	blockID string
	path    string
}

// onBlockRead counts read completions.
func (rn *run) onBlockRead(path string) {
	if rn.fileRead[path] {
		return
	}
	rn.fileRead[path] = true
	rn.read++
	if rn.read == rn.nFiles {
		rn.Logger(rn.nn, "TestDFSIO").Info("All ", rn.nFiles, " files written and verified")
		rn.Succeed()
	}
}

// ---- DataNode side ----

func (rn *run) dnService(e *sim.Engine, m sim.Message) {
	self := m.To
	switch m.Kind {
	case "registerAck":
		rn.dnRegisterAck(self)
	case "writeBlock":
		rn.dnWriteBlock(self, m.Body.(writeMsg))
	case "copyBlock":
		cm := m.Body.(copyMsg)
		e.Send(self, cm.target, "dn", "writeBlock",
			writeMsg{blockID: cm.blockID, pipeline: []sim.NodeID{cm.target}, copy: true})
	case "readBlock":
		rm := m.Body.(readMsg)
		e.AfterKeyed(self, readTime, keyReadDone, rm.path)
	}
}

// dnRegisterAck completes BPOfferService registration. HDFS-14372
// window: the datanode may be shut down right before this state is read.
func (rn *run) dnRegisterAck(self sim.NodeID) {
	pb := rn.Cfg.Probe
	defer pb.Enter(self, "hdfs.server.datanode.DataNode.register")()
	// Pre-read of the registration state.
	pb.PreRead(self, PtBPReg, string(self))
	st := rn.dns[self]
	if !rn.Eng.Node(self).Alive() {
		return
	}
	st.registered = true
	rn.Logger(self, "BPOfferService").Info("BPOfferService for ", self, " registered with NameNode")
}

// dnWriteBlock stores a replica after the disk latency (keyStore).
func (rn *run) dnWriteBlock(self sim.NodeID, wm writeMsg) {
	defer rn.Cfg.Probe.Enter(self, "hdfs.server.datanode.DataNode.storeBlock")()
	rn.Eng.AfterKeyed(self, storeTime, keyStore, wm)
}

// dnStoreBlock is the keyStore handler body: record the replica, forward
// down the pipeline, ack the client on the last hop.
func (rn *run) dnStoreBlock(self sim.NodeID, wm writeMsg) {
	e, pb := rn.Eng, rn.Cfg.Probe
	st := rn.dns[self]
	st.blocks[wm.blockID] = true
	rn.NoteWork(self)
	pb.PostWrite(self, PtDNStore, wm.blockID)
	rn.Logger(self, "DataXceiver").Info("Block ", wm.blockID, " stored on ", self)
	next := -1
	for i, p := range wm.pipeline {
		if p == self && i+1 < len(wm.pipeline) {
			next = i + 1
		}
	}
	if next > 0 {
		e.Send(self, wm.pipeline[next], "dn", "writeBlock", wm)
	} else if !wm.copy {
		e.AfterKeyed(self, sim.Millisecond, keyWritten, wm.path)
	}
	e.Send(self, rn.nn, "nn", "blockReceived", wm.blockID)
}

// ---- restart / rejoin (cluster.Rejoiner) ----

// Rejoin implements cluster.Rejoiner.
func (rn *run) Rejoin(id sim.NodeID) {
	if id == rn.nn {
		rn.rejoinNN()
		return
	}
	rn.rejoinDN(id)
}

// rejoinDN restarts the datanode process: replicas on disk survive, the
// BPOfferService registration does not. The DN re-registers, resumes
// heartbeats and announces its surviving replicas with a full block
// report.
func (rn *run) rejoinDN(id sim.NodeID) {
	e := rn.Eng
	rn.dns[id].registered = false
	rn.wireDN(e.Node(id))
	rn.Logger(id, "DataNode").Info("Datanode ", id, " restarted, re-registering with NameNode")
	e.AfterKeyed(id, 10*sim.Millisecond, keyBoot, true)
}

// rejoinNN restarts the NameNode: the namespace and block map survive
// (fsimage + edit log), the liveness monitor and in-flight client
// retries do not. Known datanodes are re-tracked by a fresh monitor and
// the TestDFSIO client re-drives whatever had not completed. The master
// is its own registry, so the recovery bookkeeping marks it rejoined
// (and working) once it serves again.
func (rn *run) rejoinNN() {
	e := rn.Eng
	rn.wireNN(e.Node(rn.nn))
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "nn", Kind: "heartbeat"}
	rn.lm = sim.NewLivenessMonitor(e, rn.nn, hb, rn.dnLost)
	ids := make([]sim.NodeID, 0, len(rn.datanodes))
	for dn := range rn.datanodes {
		ids = append(ids, dn)
	}
	sortNodeIDs(ids)
	for _, dn := range ids {
		rn.lm.Track(dn)
	}
	rn.Logger(rn.nn, "NameNode").Info("NameNode restarted, recovered ", len(rn.files), " files and ", len(rn.datanodes), " datanodes")
	rn.NoteRejoin(rn.nn)
	rn.NoteWork(rn.nn)
	e.AfterKeyed(rn.nn, 100*sim.Millisecond, keyResume, nil)
	rn.curl()
}

// resumeClient is the keyResume handler body: the TestDFSIO client
// re-drives whatever had not completed before the NameNode restart.
func (rn *run) resumeClient() {
	for i := 0; i < rn.nFiles; i++ {
		path := fmt.Sprintf("/io/file_%d", i)
		if !rn.fileWritten[path] {
			rn.writeFile(path)
		} else if rn.readPhase && !rn.fileRead[path] {
			rn.readFile(path, 0)
		}
	}
}

// Healed implements cluster.Healer: datanodes the NameNode deactivated
// during the cut re-run registration plus a full block report — the NN
// no longer tracks them, so resumed heartbeats alone would never
// re-admit them. All DNs are checked, not just the isolated set: an
// NN-side cut deactivates nodes that were never themselves isolated.
func (rn *run) Healed(isolated []sim.NodeID) {
	e := rn.Eng
	if !e.Node(rn.nn).Alive() {
		return
	}
	ids := make([]sim.NodeID, 0, len(rn.dns))
	for id := range rn.dns {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	for _, id := range ids {
		if _, ok := rn.datanodes[id]; ok {
			continue
		}
		if n := e.Node(id); n == nil || !n.Alive() {
			continue
		}
		e.AfterKeyed(id, 10*sim.Millisecond, keyBoot, true)
	}
}

// CloneRun implements cluster.Run.CloneRun; see the toysys template for the
// four-step recipe.
func (rn *run) CloneRun(cc cluster.CloneContext) cluster.Run {
	rn2 := &run{
		Base:        rn.CloneBase(cc),
		r:           rn.r,
		nn:          rn.nn,
		datanodes:   make(map[sim.NodeID]*dnInfo, len(rn.datanodes)),
		blocks:      make(map[string]*blockInfo, len(rn.blocks)),
		files:       make(map[string]string, len(rn.files)),
		dns:         make(map[sim.NodeID]*dnState, len(rn.dns)),
		nextBlk:     rn.nextBlk,
		nFiles:      rn.nFiles,
		written:     rn.written,
		read:        rn.read,
		fileWritten: make(map[string]bool, len(rn.fileWritten)),
		fileRead:    make(map[string]bool, len(rn.fileRead)),
		readPhase:   rn.readPhase,
	}
	for id, di := range rn.datanodes {
		blks := make(map[string]bool, len(di.blocks))
		for b, v := range di.blocks {
			blks[b] = v
		}
		rn2.datanodes[id] = &dnInfo{id: di.id, blocks: blks}
	}
	for id, bi := range rn.blocks {
		// locations is mutated in place (removeLoc / append), so it
		// needs its own backing array.
		locs := make([]sim.NodeID, len(bi.locations))
		copy(locs, bi.locations)
		rn2.blocks[id] = &blockInfo{id: bi.id, file: bi.file, locations: locs}
	}
	for p, b := range rn.files {
		rn2.files[p] = b
	}
	for id, st := range rn.dns {
		blks := make(map[string]bool, len(st.blocks))
		for b, v := range st.blocks {
			blks[b] = v
		}
		rn2.dns[id] = &dnState{id: st.id, registered: st.registered, blocks: blks}
	}
	for p, v := range rn.fileWritten {
		rn2.fileWritten[p] = v
	}
	for p, v := range rn.fileRead {
		rn2.fileRead[p] = v
	}

	e2 := cc.Eng
	rn2.wireNN(e2.Node(rn2.nn))
	for id := range rn2.dns {
		rn2.wireDN(e2.Node(id))
	}
	rn2.lm = rn.lm.CloneTo(e2, cc.Remap, rn2.dnLost)
	return rn2
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortNodeIDs(s []sim.NodeID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
