// Package cloud models the demo's two OpenStack deployments — a mobile-edge
// and a core data center — together with a Heat-style stack orchestrator.
// The demo performs "dynamic configurations of computational resources ...
// through Heat"; per admitted slice, a stack template describing the vEPC
// VMs is instantiated in the data center chosen by the embedding logic.
//
// The model covers what the orchestration control loop actually exercises:
// host capacity accounting (vCPU/RAM/disk), flavors, first-fit VM placement
// shared by the admission dry run (CanFit) and the install (CreateStack),
// atomic stack create/delete, and utilization telemetry. It does not speak
// the OpenStack wire protocol (non-goal, see DESIGN.md).
package cloud

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Flavor is a VM size, mirroring Nova flavors.
type Flavor struct {
	Name   string  `json:"name"`
	VCPUs  float64 `json:"vcpus"`
	RAMMB  int     `json:"ram_mb"`
	DiskGB int     `json:"disk_gb"`
}

// Validate reports the first problem with the flavor.
func (f Flavor) Validate() error {
	switch {
	case f.Name == "":
		return errors.New("cloud: flavor needs a name")
	case f.VCPUs <= 0:
		return fmt.Errorf("cloud: flavor %s vcpus %.1f must be positive", f.Name, f.VCPUs)
	case f.RAMMB <= 0:
		return fmt.Errorf("cloud: flavor %s ram %d must be positive", f.Name, f.RAMMB)
	case f.DiskGB < 0:
		return fmt.Errorf("cloud: flavor %s disk %d must be non-negative", f.Name, f.DiskGB)
	}
	return nil
}

// Standard flavors used by the vEPC templates.
var (
	FlavorSmall  = Flavor{Name: "m1.small", VCPUs: 1, RAMMB: 2048, DiskGB: 20}
	FlavorMedium = Flavor{Name: "m1.medium", VCPUs: 2, RAMMB: 4096, DiskGB: 40}
	FlavorLarge  = Flavor{Name: "m1.large", VCPUs: 4, RAMMB: 8192, DiskGB: 80}
)

// Host is one compute node.
type Host struct {
	Name   string
	VCPUs  float64
	RAMMB  int
	DiskGB int

	usedVCPUs  float64
	usedRAMMB  int
	usedDiskGB int
	vms        map[string]*VM
}

// fits reports whether the flavor fits in the host's free capacity.
func (h *Host) fits(f Flavor) bool {
	return h.VCPUs-h.usedVCPUs >= f.VCPUs-1e-9 &&
		h.RAMMB-h.usedRAMMB >= f.RAMMB &&
		h.DiskGB-h.usedDiskGB >= f.DiskGB
}

// charge takes the flavor out of the host's free capacity.
func (h *Host) charge(f Flavor) {
	h.usedVCPUs += f.VCPUs
	h.usedRAMMB += f.RAMMB
	h.usedDiskGB += f.DiskGB
}

func (h *Host) place(vm *VM) {
	h.charge(vm.Flavor)
	h.vms[vm.ID] = vm
}

func (h *Host) evict(vm *VM) {
	if _, ok := h.vms[vm.ID]; !ok {
		return
	}
	h.usedVCPUs -= vm.Flavor.VCPUs
	h.usedRAMMB -= vm.Flavor.RAMMB
	h.usedDiskGB -= vm.Flavor.DiskGB
	delete(h.vms, vm.ID)
}

// VM is one placed instance.
type VM struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Flavor Flavor `json:"flavor"`
	Host   string `json:"host"`
	Stack  string `json:"stack"`
}

// Errors surfaced as admission-rejection reasons.
var (
	ErrNoCapacity     = errors.New("cloud: no host fits the flavor")
	ErrUnknownStack   = errors.New("cloud: unknown stack")
	ErrDuplicateStack = errors.New("cloud: stack already exists")
)

// DataCenter is one OpenStack deployment.
type DataCenter struct {
	name string
	kind string // "edge" or "core", informational

	mu     sync.Mutex
	hosts  map[string]*Host
	byName []*Host // hosts sorted by name, maintained on AddHost
	stacks map[string]*Stack
	vmSeq  int

	// free and at are firstFit's working arrays, reused across CanFit and
	// CreateStack calls (both run under mu), so neither the admission dry
	// run nor the install allocates for placement in steady state.
	free []Host
	at   []int
}

// NewDataCenter returns an empty data center.
func NewDataCenter(name, kind string) *DataCenter {
	return &DataCenter{
		name:   name,
		kind:   kind,
		hosts:  make(map[string]*Host),
		stacks: make(map[string]*Stack),
	}
}

// Name returns the data-center name (matches its transport gateway node).
func (dc *DataCenter) Name() string { return dc.name }

// Kind returns "edge" or "core".
func (dc *DataCenter) Kind() string { return dc.kind }

// AddHost registers a compute node.
func (dc *DataCenter) AddHost(name string, vcpus float64, ramMB, diskGB int) error {
	if name == "" || vcpus <= 0 || ramMB <= 0 || diskGB < 0 {
		return fmt.Errorf("cloud: invalid host %q (%.1f vCPU, %d MB, %d GB)", name, vcpus, ramMB, diskGB)
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if _, ok := dc.hosts[name]; ok {
		return fmt.Errorf("cloud: duplicate host %q in %s", name, dc.name)
	}
	h := &Host{Name: name, VCPUs: vcpus, RAMMB: ramMB, DiskGB: diskGB, vms: map[string]*VM{}}
	dc.hosts[name] = h
	i := sort.Search(len(dc.byName), func(i int) bool { return dc.byName[i].Name >= name })
	dc.byName = append(dc.byName, nil)
	copy(dc.byName[i+1:], dc.byName[i:])
	dc.byName[i] = h
	return nil
}

// TemplateResource is one VM in a stack template.
type TemplateResource struct {
	Name   string `json:"name"`
	Flavor Flavor `json:"flavor"`
}

// Template is a Heat-style stack template: the set of VMs a slice's vEPC
// needs.
type Template struct {
	Resources []TemplateResource `json:"resources"`
}

// Validate reports the first problem with the template.
func (t Template) Validate() error {
	if len(t.Resources) == 0 {
		return errors.New("cloud: template has no resources")
	}
	// Duplicate detection by pairwise scan: templates are a handful of VMs,
	// and this keeps validation allocation-free on the admission hot path.
	for i, r := range t.Resources {
		if r.Name == "" {
			return errors.New("cloud: template resource needs a name")
		}
		for j := 0; j < i; j++ {
			if t.Resources[j].Name == r.Name {
				return fmt.Errorf("cloud: duplicate resource %q", r.Name)
			}
		}
		if err := r.Flavor.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalVCPUs sums the template's vCPU demand, the quantity admission
// control checks against DC capacity.
func (t Template) TotalVCPUs() float64 {
	s := 0.0
	for _, r := range t.Resources {
		s += r.Flavor.VCPUs
	}
	return s
}

// Stack is an instantiated template.
type Stack struct {
	ID  string `json:"id"`
	VMs []*VM  `json:"vms"`
}

// firstFit is the data center's one placement algorithm, run by both CanFit
// and CreateStack: each resource of the template goes to the first host in
// name order that fits it once the resources before it are placed. It
// places on copies of the hosts, so the books do not move, and returns the
// index into byName of each placed resource's host, stopping at the first
// resource that fits nowhere: the template fits when every resource got a
// host. The result is dc.at, valid under dc.mu until the next call.
func (dc *DataCenter) firstFit(tmpl Template) []int {
	dc.free = dc.free[:0]
	for _, h := range dc.byName {
		dc.free = append(dc.free, *h)
	}
	dc.at = dc.at[:0]
	for _, res := range tmpl.Resources {
		i := 0
		for i < len(dc.free) && !dc.free[i].fits(res.Flavor) {
			i++
		}
		if i == len(dc.free) {
			break
		}
		dc.free[i].charge(res.Flavor)
		dc.at = append(dc.at, i)
	}
	return dc.at
}

// CreateStack atomically places every VM of the template or none of them
// (Heat's create-rollback semantics).
func (dc *DataCenter) CreateStack(id string, tmpl Template) (*Stack, error) {
	if err := tmpl.Validate(); err != nil {
		return nil, err
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if _, ok := dc.stacks[id]; ok {
		return nil, fmt.Errorf("%w: %s in %s", ErrDuplicateStack, id, dc.name)
	}
	at := dc.firstFit(tmpl)
	if len(at) < len(tmpl.Resources) {
		res := tmpl.Resources[len(at)]
		return nil, fmt.Errorf("%w: %s (%.1f vCPU) in %s", ErrNoCapacity, res.Flavor.Name, res.Flavor.VCPUs, dc.name)
	}
	stack := &Stack{ID: id, VMs: make([]*VM, 0, len(tmpl.Resources))}
	for r, res := range tmpl.Resources {
		target := dc.byName[at[r]]
		dc.vmSeq++
		vm := &VM{
			ID:     dc.name + "/vm-" + strconv.Itoa(dc.vmSeq),
			Name:   res.Name,
			Flavor: res.Flavor,
			Host:   target.Name,
			Stack:  id,
		}
		target.place(vm)
		stack.VMs = append(stack.VMs, vm)
	}
	dc.stacks[id] = stack
	return stack, nil
}

// DeleteStack removes the stack and frees its VMs. Unknown IDs are a no-op.
func (dc *DataCenter) DeleteStack(id string) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	stack, ok := dc.stacks[id]
	if !ok {
		return
	}
	for _, vm := range stack.VMs {
		if h, ok := dc.hosts[vm.Host]; ok {
			h.evict(vm)
		}
	}
	delete(dc.stacks, id)
}

// Stack returns the named stack.
func (dc *DataCenter) Stack(id string) (*Stack, bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	s, ok := dc.stacks[id]
	return s, ok
}

// StackIDs returns every instantiated stack ID, sorted — the leak-check
// enumeration the invariant auditor maps back onto live slices.
func (dc *DataCenter) StackIDs() []string {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	out := make([]string, 0, len(dc.stacks))
	for id := range dc.stacks {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AuditConservation cross-checks the data center's capacity books against
// ground truth and returns one message per discrepancy (empty when the
// books balance): each host's used vCPU/RAM/disk counters must equal the
// sums over its placed VMs, free capacity must never go negative, every
// host VM must belong to a registered stack, and every stack VM must be
// placed on the host it names.
func (dc *DataCenter) AuditConservation() []string {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	var out []string
	names := make([]string, 0, len(dc.hosts))
	for n := range dc.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := dc.hosts[n]
		var vcpus float64
		var ram, disk int
		for id, vm := range h.vms {
			vcpus += vm.Flavor.VCPUs
			ram += vm.Flavor.RAMMB
			disk += vm.Flavor.DiskGB
			stack, ok := dc.stacks[vm.Stack]
			if !ok {
				out = append(out, fmt.Sprintf("cloud %s/%s: VM %s belongs to unknown stack %q", dc.name, n, id, vm.Stack))
				continue
			}
			found := false
			for _, sv := range stack.VMs {
				if sv.ID == id {
					found = true
					break
				}
			}
			if !found {
				out = append(out, fmt.Sprintf("cloud %s/%s: VM %s missing from its stack %q", dc.name, n, id, vm.Stack))
			}
		}
		if d := h.usedVCPUs - vcpus; d > 1e-6 || d < -1e-6 {
			out = append(out, fmt.Sprintf("cloud %s/%s: used vCPUs %.3f != sum over VMs %.3f", dc.name, n, h.usedVCPUs, vcpus))
		}
		if h.usedRAMMB != ram {
			out = append(out, fmt.Sprintf("cloud %s/%s: used RAM %d != sum over VMs %d", dc.name, n, h.usedRAMMB, ram))
		}
		if h.usedDiskGB != disk {
			out = append(out, fmt.Sprintf("cloud %s/%s: used disk %d != sum over VMs %d", dc.name, n, h.usedDiskGB, disk))
		}
		if h.VCPUs-h.usedVCPUs < -1e-9 || h.RAMMB-h.usedRAMMB < 0 || h.DiskGB-h.usedDiskGB < 0 {
			out = append(out, fmt.Sprintf("cloud %s/%s: negative slack (%.1f/%.1f vCPU, %d/%d MB, %d/%d GB)",
				dc.name, n, h.usedVCPUs, h.VCPUs, h.usedRAMMB, h.RAMMB, h.usedDiskGB, h.DiskGB))
		}
	}
	for id, stack := range dc.stacks {
		for _, vm := range stack.VMs {
			h, ok := dc.hosts[vm.Host]
			if !ok {
				out = append(out, fmt.Sprintf("cloud %s: stack %q VM %s names unknown host %q", dc.name, id, vm.ID, vm.Host))
				continue
			}
			if _, ok := h.vms[vm.ID]; !ok {
				out = append(out, fmt.Sprintf("cloud %s: stack %q VM %s not placed on host %s", dc.name, id, vm.ID, vm.Host))
			}
		}
	}
	sort.Strings(out)
	return out
}

// CanFit reports whether the template could be placed right now: admission
// control's dry run, the very placement CreateStack would make.
func (dc *DataCenter) CanFit(tmpl Template) bool {
	if tmpl.Validate() != nil {
		return false
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return len(dc.firstFit(tmpl)) == len(tmpl.Resources)
}

// Capacity summarises total and used resources.
type Capacity struct {
	TotalVCPUs float64 `json:"total_vcpus"`
	UsedVCPUs  float64 `json:"used_vcpus"`
	TotalRAMMB int     `json:"total_ram_mb"`
	UsedRAMMB  int     `json:"used_ram_mb"`
	Hosts      int     `json:"hosts"`
	VMs        int     `json:"vms"`
	Stacks     int     `json:"stacks"`
}

// Capacity returns the data-center capacity summary.
func (dc *DataCenter) Capacity() Capacity {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	var c Capacity
	c.Hosts = len(dc.hosts)
	c.Stacks = len(dc.stacks)
	for _, h := range dc.hosts {
		c.TotalVCPUs += h.VCPUs
		c.UsedVCPUs += h.usedVCPUs
		c.TotalRAMMB += h.RAMMB
		c.UsedRAMMB += h.usedRAMMB
		c.VMs += len(h.vms)
	}
	return c
}

// Utilization returns used/total vCPUs in [0,1].
func (dc *DataCenter) Utilization() float64 {
	c := dc.Capacity()
	if c.TotalVCPUs <= 0 {
		return 0
	}
	return c.UsedVCPUs / c.TotalVCPUs
}

// Region is the set of data centers available to the orchestrator. All
// methods are safe for concurrent use; lookups take a shared read lock
// because every admission check and installation resolves a data center.
type Region struct {
	mu  sync.RWMutex
	dcs map[string]*DataCenter
}

// NewRegion returns an empty region.
func NewRegion() *Region { return &Region{dcs: make(map[string]*DataCenter)} }

// Add registers a data center; duplicates error.
func (r *Region) Add(dc *DataCenter) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.dcs[dc.Name()]; ok {
		return fmt.Errorf("cloud: duplicate data center %q", dc.Name())
	}
	r.dcs[dc.Name()] = dc
	return nil
}

// Get returns the named data center.
func (r *Region) Get(name string) (*DataCenter, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dc, ok := r.dcs[name]
	return dc, ok
}

// Names lists data centers sorted.
func (r *Region) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.dcs))
	for n := range r.dcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns data centers sorted by name.
func (r *Region) All() []*DataCenter {
	names := r.Names()
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*DataCenter, 0, len(names))
	for _, n := range names {
		out = append(out, r.dcs[n])
	}
	return out
}
