// Package kubelike is the §4.4 extension: a Kubernetes-style scheduler
// demonstrating that meta-info analysis transfers beyond the Hadoop
// ecosystem. The paper studies 14 scheduling-related Kubernetes
// crash-recovery bugs (Table 13) and observes they are all triggered
// when nodes crash at meta-info access points; this simulated control
// plane carries one such bug.
//
// Roles: an API-server/scheduler/controller node plus kubelet nodes.
// Pods are scheduled to nodes, kubelets run them and report status, and
// the node controller evicts pods from NotReady nodes.
//
// Seeded bug (mirrors the Table 13 Node PRs, e.g. kubernetes#53647): the
// scheduler picks a node during filtering, and later dereferences
// nodes.get(chosen) without re-checking — a node deleted between
// filtering and binding panics the scheduler and the deployment never
// completes.
package kubelike

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// Instrumented point IDs; indexes fixed by model.go.
const (
	PtNodePut    = ir.PointID("k8s.controller.NodeController.registerNode#0") // post-write
	PtBindGet    = ir.PointID("k8s.scheduler.Scheduler.bind#0")               // pre-read (seeded bug)
	PtBindPut    = ir.PointID("k8s.scheduler.Scheduler.bind#1")               // post-write
	PtNodeRemove = ir.PointID("k8s.controller.NodeController.removeNode#0")   // post-write
)

// BugStaleBind is the seeded bug identifier (a Table 13 Node-meta-info
// scheduling bug).
const BugStaleBind = "K8S-53647"

// Keyed-timer keys (see the toysys template): all mid-run scheduling is
// (key, arg) data so the run is cloneable; handlers are registered by
// wireAPI / wireKubelet.
const (
	keyBoot        = "k8s.boot"        // kubelet: register + start node-status heartbeats
	keyCreatePods  = "k8s.createPods"  // api: create the deployment's pods and schedule them
	keySchedule    = "k8s.sched"       // api: (re)schedule one pod; arg is the pod uid
	keyBindTimeout = "k8s.bindTimeout" // api: binding-timeout recheck; arg is the pod uid
	keyReconcile   = "k8s.reconcile"   // api: post-restart re-bind of non-running pods
	keyRunPod      = "k8s.runPod"      // kubelet: pod start completed; arg is the pod uid
)

// Runner builds kubelike runs.
type Runner struct {
	// Kubelets is the number of worker nodes (default 2).
	Kubelets int
	// FixStaleBind patches the seeded bug.
	FixStaleBind bool
}

// Name implements cluster.Runner.
func (r *Runner) Name() string { return "kubelike" }

// Workload implements cluster.Runner.
func (r *Runner) Workload() string { return "Deployment" }

// Hosts implements cluster.Runner.
func (r *Runner) Hosts() []string {
	hosts := []string{"node0"}
	for i := 1; i <= r.kubelets(); i++ {
		hosts = append(hosts, fmt.Sprintf("node%d", i))
	}
	return hosts
}

func (r *Runner) kubelets() int {
	if r.Kubelets < 1 {
		return 2
	}
	return r.Kubelets
}

type pod struct {
	uid     string
	node    sim.NodeID
	running bool
}

type run struct {
	*cluster.Base
	r      *Runner
	api    sim.NodeID
	lets   []sim.NodeID
	nodes  map[sim.NodeID]bool
	pods   []*pod
	lm     *sim.LivenessMonitor
	rr     int
	wanted int
}

// NewRun implements cluster.Runner.
func (r *Runner) NewRun(cfg cluster.Config) cluster.Run {
	b := cluster.NewBase(cfg)
	rn := &run{Base: b, r: r, nodes: make(map[sim.NodeID]bool)}
	e := b.Eng
	api := e.AddNode("node0", 6443)
	rn.api = api.ID
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "api", Kind: "nodeStatus"}
	rn.lm = sim.NewLivenessMonitor(e, rn.api, hb, rn.nodeLost)
	rn.wireAPI(api)
	for i := 1; i <= r.kubelets(); i++ {
		k := e.AddNode(fmt.Sprintf("node%d", i), 10250)
		rn.lets = append(rn.lets, k.ID)
		rn.wireKubelet(k)
	}
	return rn
}

func (rn *run) nodeLost(n sim.NodeID) { rn.removeNode(n, "NotReady") }

// wireAPI attaches the control plane's service and keyed handlers; shared
// by NewRun, rejoinAPI and CloneRun.
func (rn *run) wireAPI(n *sim.Node) {
	n.Register("api", sim.ServiceFunc(rn.apiService))
	n.Handle(keyCreatePods, func(e *sim.Engine, _ sim.NodeID, _ any) { rn.createPods() })
	n.Handle(keySchedule, func(e *sim.Engine, _ sim.NodeID, arg any) {
		if p := rn.podByUID(arg.(string)); p != nil {
			rn.schedule(p)
		}
	})
	n.Handle(keyBindTimeout, func(e *sim.Engine, _ sim.NodeID, arg any) {
		p := rn.podByUID(arg.(string))
		if p != nil && rn.Status() == cluster.Running && !p.running {
			rn.schedule(p)
		}
	})
	n.Handle(keyReconcile, func(e *sim.Engine, _ sim.NodeID, _ any) {
		for _, p := range rn.pods {
			if !p.running {
				rn.schedule(p)
			}
		}
	})
}

// wireKubelet attaches a worker's service, keyed handlers and drain hook;
// shared by NewRun, rejoinKubelet and CloneRun.
func (rn *run) wireKubelet(n *sim.Node) {
	id := n.ID
	n.Register("kubelet", sim.ServiceFunc(rn.kubeletService))
	n.Handle(keyBoot, func(e *sim.Engine, self sim.NodeID, _ any) {
		e.Send(self, rn.api, "api", "register", nil)
		sim.StartHeartbeats(e, self, rn.api, sim.HeartbeatConfig{
			Period: sim.Second, Timeout: 3 * sim.Second, Service: "api", Kind: "nodeStatus",
		})
	})
	n.Handle(keyRunPod, func(e *sim.Engine, self sim.NodeID, arg any) {
		uid := arg.(string)
		rn.Logger(self, "Kubelet").Info("Pod ", uid, " running on ", self)
		e.Send(self, rn.api, "api", "podRunning", uid)
	})
	n.OnShutdown(func(e *sim.Engine) { rn.removeNode(id, "drained") })
}

func (rn *run) podByUID(uid string) *pod {
	for _, p := range rn.pods {
		if p.uid == uid {
			return p
		}
	}
	return nil
}

// Start implements cluster.Run.
func (rn *run) Start() {
	e := rn.Eng
	rn.wanted = 4 * rn.Cfg.Scale
	for _, k := range rn.lets {
		e.AfterKeyed(k, 10*sim.Millisecond, keyBoot, nil)
	}
	e.AfterKeyed(rn.api, 100*sim.Millisecond, keyCreatePods, nil)
}

// createPods is the keyCreatePods handler body.
func (rn *run) createPods() {
	for i := 0; i < rn.wanted; i++ {
		p := &pod{uid: fmt.Sprintf("pod-%d", i)}
		rn.pods = append(rn.pods, p)
		rn.schedule(p)
	}
}

func (rn *run) apiService(e *sim.Engine, m sim.Message) {
	switch m.Kind {
	case "nodeStatus":
		rn.lm.Beat(m.From)
	case "register":
		rn.registerNode(m.From)
	case "podRunning":
		rn.podRunning(m.From, m.Body.(string))
	}
}

func (rn *run) registerNode(n sim.NodeID) {
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.api, "k8s.controller.NodeController.registerNode")()
	if rn.nodes[n] {
		// A restarted kubelet re-registered before the node controller
		// marked it NotReady: its pods died with the old incarnation, so
		// they are recreated.
		rn.Logger(rn.api, "NodeController").Warn("Node ", n, " re-registered with a fresh state, recreating its pods")
		for _, p := range rn.pods {
			if p.node == n {
				p.running = false
				p.node = ""
				rn.Eng.AfterKeyed(rn.api, 100*sim.Millisecond, keySchedule, p.uid)
			}
		}
	}
	rn.nodes[n] = true
	pb.PostWrite(rn.api, PtNodePut, string(n))
	rn.lm.Track(n)
	rn.NoteRejoin(n)
	rn.Logger(rn.api, "NodeController").Info("Node ", n, " registered and Ready")
}

// removeNode evicts the pods of a departed node.
func (rn *run) removeNode(n sim.NodeID, why string) {
	if !rn.Eng.Node(rn.api).Alive() {
		return
	}
	if !rn.nodes[n] {
		return
	}
	rn.NotePartitionLost(rn.api, n)
	for _, p := range rn.pods {
		if p.node == n {
			// Recreating pods a cut-off kubelet is still running doubles
			// every one of them: split brain.
			rn.NoteSplitBrain(rn.api, n)
			break
		}
	}
	pb := rn.Cfg.Probe
	defer pb.Enter(rn.api, "k8s.controller.NodeController.removeNode")()
	delete(rn.nodes, n)
	pb.PostWrite(rn.api, PtNodeRemove, string(n))
	rn.lm.Forget(n)
	rn.Logger(rn.api, "NodeController").Warn("Node ", n, " ", why, ", evicting its pods")
	for _, p := range rn.pods {
		if p.node == n && !p.running {
			p.node = ""
			rn.Eng.AfterKeyed(rn.api, 100*sim.Millisecond, keySchedule, p.uid)
		} else if p.node == n {
			// Running pods are recreated elsewhere.
			p.running = false
			p.node = ""
			rn.Eng.AfterKeyed(rn.api, 100*sim.Millisecond, keySchedule, p.uid)
		}
	}
}

// schedule filters a node for the pod and binds it. The gap between the
// two is the seeded bug's window.
func (rn *run) schedule(p *pod) {
	e, pb := rn.Eng, rn.Cfg.Probe
	if rn.Status() != cluster.Running || p.running {
		return
	}
	defer pb.Enter(rn.api, "k8s.scheduler.Scheduler.bind")()
	// Filtering phase: pick a Ready node (sanity-checked read).
	var chosen sim.NodeID
	for i := 0; i < len(rn.lets); i++ {
		cand := rn.lets[(rn.rr+i)%len(rn.lets)]
		if rn.nodes[cand] {
			chosen = cand
			rn.rr = (rn.rr + i + 1) % len(rn.lets)
			break
		}
	}
	if chosen == "" {
		e.AfterKeyed(rn.api, 500*sim.Millisecond, keySchedule, p.uid)
		return
	}
	// Seeded-bug window: the chosen node may be deleted right here,
	// between filtering and binding.
	pb.PreRead(rn.api, PtBindGet, string(chosen), p.uid)
	if !rn.nodes[chosen] {
		if rn.r.FixStaleBind {
			rn.Logger(rn.api, "Scheduler").Warn("Node ", chosen, " vanished, rescheduling ", p.uid)
			e.AfterKeyed(rn.api, 200*sim.Millisecond, keySchedule, p.uid)
			return
		}
		rn.Witness(BugStaleBind)
		e.Throw(rn.api, "NilNodeInfo@Scheduler.bind",
			fmt.Sprintf("node %s deleted during binding of %s", chosen, p.uid), false)
		rn.Fail("scheduler panicked binding " + p.uid + " to deleted node")
		return
	}
	p.node = chosen
	rn.NoteWork(chosen)
	pb.PostWrite(rn.api, PtBindPut, p.uid, string(chosen))
	rn.Logger(rn.api, "Scheduler").Info("Bound pod ", p.uid, " to ", chosen)
	e.Send(rn.api, chosen, "kubelet", "runPod", p.uid)
	// Binding timeout: a kubelet that dies mid-start is retried after
	// eviction; the scheduler also re-checks on its own.
	e.AfterKeyed(rn.api, 5*sim.Second, keyBindTimeout, p.uid)
}

// ---- restart / rejoin (cluster.Rejoiner) ----

// Rejoin implements cluster.Rejoiner.
func (rn *run) Rejoin(id sim.NodeID) {
	if id == rn.api {
		rn.rejoinAPI()
		return
	}
	rn.rejoinKubelet(id)
}

// rejoinKubelet restarts a worker: the kubelet re-registers with the
// API server and resumes node-status heartbeats; the node controller
// recreates any pods lost with the previous incarnation.
func (rn *run) rejoinKubelet(id sim.NodeID) {
	e := rn.Eng
	rn.wireKubelet(e.Node(id))
	rn.Logger(id, "Kubelet").Info("Kubelet ", id, " restarted, re-registering with the API server")
	e.AfterKeyed(id, 10*sim.Millisecond, keyBoot, nil)
}

// rejoinAPI restarts the control plane: the API service comes back, a
// fresh node controller re-tracks Ready nodes and the scheduler
// reconciles by re-binding every non-running pod. The control plane is
// its own registry, so the recovery bookkeeping marks it rejoined (and
// working) once it serves again.
func (rn *run) rejoinAPI() {
	e := rn.Eng
	rn.wireAPI(e.Node(rn.api))
	hb := sim.HeartbeatConfig{Period: sim.Second, Timeout: 3 * sim.Second, Service: "api", Kind: "nodeStatus"}
	rn.lm = sim.NewLivenessMonitor(e, rn.api, hb, rn.nodeLost)
	for _, k := range rn.lets {
		if rn.nodes[k] {
			rn.lm.Track(k)
		}
	}
	rn.Logger(rn.api, "NodeController").Info("Control plane restarted, reconciling pods")
	rn.NoteRejoin(rn.api)
	rn.NoteWork(rn.api)
	e.AfterKeyed(rn.api, 100*sim.Millisecond, keyReconcile, nil)
}

func (rn *run) kubeletService(e *sim.Engine, m sim.Message) {
	if m.Kind != "runPod" {
		return
	}
	e.AfterKeyed(m.To, 200*sim.Millisecond, keyRunPod, m.Body.(string))
}

// Healed implements cluster.Healer: kubelets the node controller marked
// NotReady during the cut re-register — the controller no longer tracks
// them, so resumed status beats alone would never re-admit them. All
// kubelets are checked, not just the isolated set: an API-server-side
// cut evicts nodes that were never themselves isolated.
func (rn *run) Healed(isolated []sim.NodeID) {
	e := rn.Eng
	if !e.Node(rn.api).Alive() {
		return
	}
	for _, k := range rn.lets {
		if rn.nodes[k] {
			continue
		}
		if n := e.Node(k); n == nil || !n.Alive() {
			continue
		}
		e.AfterKeyed(k, 10*sim.Millisecond, keyBoot, nil)
	}
}

// CloneRun implements cluster.Run.CloneRun (recipe in the toysys template):
// deep-copy the node set and pods, re-wire both roles, rebuild the
// liveness monitor on the clone.
func (rn *run) CloneRun(cc cluster.CloneContext) cluster.Run {
	rn2 := &run{
		Base:   rn.CloneBase(cc),
		r:      rn.r,
		api:    rn.api,
		lets:   append([]sim.NodeID(nil), rn.lets...),
		nodes:  make(map[sim.NodeID]bool, len(rn.nodes)),
		rr:     rn.rr,
		wanted: rn.wanted,
	}
	for id, v := range rn.nodes {
		rn2.nodes[id] = v
	}
	pods := make([]pod, len(rn.pods))
	rn2.pods = make([]*pod, len(rn.pods))
	for i, p := range rn.pods {
		pods[i] = *p
		rn2.pods[i] = &pods[i]
	}
	e2 := cc.Eng
	rn2.lm = rn.lm.CloneTo(e2, cc.Remap, rn2.nodeLost)
	rn2.wireAPI(e2.Node(rn2.api))
	for _, k := range rn2.lets {
		rn2.wireKubelet(e2.Node(k))
	}
	return rn2
}

func (rn *run) podRunning(from sim.NodeID, uid string) {
	defer rn.Cfg.Probe.Enter(rn.api, "k8s.controller.NodeController.podRunning")()
	if !rn.nodes[from] {
		// Status report from a node the controller already evicted — stale
		// when the reporter was cut off and its report crossed the heal.
		rn.NoteStaleRead(rn.api, from)
	}
	running := 0
	for _, p := range rn.pods {
		if p.uid == uid {
			p.running = true
		}
		if p.running {
			running++
		}
	}
	if running == rn.wanted {
		rn.Logger(rn.api, "Deployment").Info("Deployment ready with ", rn.wanted, " pods")
		rn.Succeed()
	}
}
