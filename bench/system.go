package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lachesis/internal/oslinux"
)

// unset marks a table slot nothing has been written to.
const unset = int32(-1 << 31)

// kernelTable is the scheduling state the control writes add up to: nice
// per thread, cgroup per thread, shares and existence per cgroup. Threads
// are indexed by tid-tidBase, cgroups as shape.groupDir numbers them.
type kernelTable struct {
	Nice   []int32 // unset until written
	Group  []int32 // cgroup index; unset until moved or after a restore
	Shares []int32 // unset until written
	Exists []bool
}

func newKernelTable(threads, groups int) kernelTable {
	t := kernelTable{
		Nice: make([]int32, threads), Group: make([]int32, threads),
		Shares: make([]int32, groups), Exists: make([]bool, groups),
	}
	for i := range t.Nice {
		t.Nice[i], t.Group[i] = unset, unset
	}
	for i := range t.Shares {
		t.Shares[i] = unset
	}
	return t
}

func (t kernelTable) clone() kernelTable {
	return kernelTable{
		Nice: slices.Clone(t.Nice), Group: slices.Clone(t.Group),
		Shares: slices.Clone(t.Shares), Exists: slices.Clone(t.Exists),
	}
}

// mismatchedBindings counts the bindings that have a thread or cgroup in a
// different state in t than in want.
func (t kernelTable) mismatchedBindings(want kernelTable, sh shape) int {
	bad := 0
	perB, perQ := sh.entitiesPerBinding(), sh.groupsPerBinding()
	for b := 0; b < sh.Bindings; b++ {
		ok := slices.Equal(t.Nice[b*perB:(b+1)*perB], want.Nice[b*perB:(b+1)*perB]) &&
			slices.Equal(t.Group[b*perB:(b+1)*perB], want.Group[b*perB:(b+1)*perB]) &&
			slices.Equal(t.Shares[b*perQ:(b+1)*perQ], want.Shares[b*perQ:(b+1)*perQ]) &&
			slices.Equal(t.Exists[b*perQ:(b+1)*perQ], want.Exists[b*perQ:(b+1)*perQ])
		if !ok {
			bad++
		}
	}
	return bad
}

// sampleBuf collects int32 nanosecond samples from any goroutine into a
// preallocated buffer; samples past its capacity are counted and dropped.
// Between cycles, when nothing adds, mark closes the cycle's run of samples,
// so that take can convert each cycle's samples with that cycle's factor.
type sampleBuf struct {
	buf     []int32
	n       atomic.Int64
	dropped atomic.Int64
	marks   []int // per closed cycle: the number of samples collected by its end
}

func newSampleBuf(capacity, cycles int) *sampleBuf {
	return &sampleBuf{buf: make([]int32, capacity), marks: make([]int, 0, cycles)}
}

func (s *sampleBuf) add(d time.Duration) {
	i := s.n.Add(1) - 1
	if i >= int64(len(s.buf)) {
		s.dropped.Add(1)
		return
	}
	if d > 1<<31-1 {
		d = 1<<31 - 1
	}
	s.buf[i] = int32(d)
}

// mark ends a cycle: samples added from here on belong to the next one.
func (s *sampleBuf) mark() {
	s.marks = append(s.marks, int(min(s.n.Load(), int64(len(s.buf)))))
}

// take multiplies the samples of the i-th marked cycle by factors[i] (a nil
// factors leaves them as measured), sorts and returns all collected samples
// and empties the buffer. The returned slice is valid until the next add.
func (s *sampleBuf) take(factors []float64) []int32 {
	n := int(min(s.n.Load(), int64(len(s.buf))))
	lo := 0
	for i, hi := range s.marks {
		if i < len(factors) {
			for j := lo; j < hi; j++ {
				s.buf[j] = int32(float64(s.buf[j]) * factors[i])
			}
		}
		lo = hi
	}
	s.n.Store(0)
	s.marks = s.marks[:0]
	out := s.buf[:n]
	slices.Sort(out)
	return out
}

// Write kinds counted by benchSystem.
const (
	kindNice = iota
	kindShares
	kindMove
	kindMkdir
	kindRemove
	kindRestore
	numKinds
)

// benchSystem is the oslinux.System under every stack: the bottom of the
// write path, where the benchmark counts the calls that would be syscalls,
// keeps the resulting kernelTable for the correctness check, and stamps
// sample-to-kernel latency. Given a files directory it also performs each
// control-file write as open/write/close on a real file.
type benchSystem struct {
	sh shape
	// controlFile maps a control file's name to the real file its writes
	// go to; nil keeps every write in memory. All cgroups share one real
	// file per name: what is measured is the open/write/close a cgroupfs
	// write costs, and creating and deleting a directory tree per cgroup
	// on a disk-backed checkout made set-up time follow the state of the
	// disk's journal (0.8 s growing to 1.6 s over consecutive runs).
	controlFile map[string]string

	table   kernelTable
	groupID map[string]int32 // cgroup directory name -> cgroup index

	epoch      time.Time      // origin of the stamps below
	fetchDone  []atomic.Int64 // per driver: ns since epoch of the latest Fetch return
	s2k        *sampleBuf     // nil until armed; sample-to-kernel latency per write
	kinds      [numKinds]atomic.Int64
	writeErrs  atomic.Int64
	cgroupRoot string // root + "/", cached for prefix stripping
	parentFile string // the tasks file a RestoreThread writes to

	tr *tracer // traced runs: records a span per call
}

var (
	_ oslinux.System     = (*benchSystem)(nil)
	_ oslinux.ReadSystem = (*benchSystem)(nil)
)

// newBenchSystem creates the System for one stack. root is the cgroup
// root; filesDir, when not empty, is an existing directory the real control
// files are created in.
func newBenchSystem(sh shape, root, filesDir string) (*benchSystem, error) {
	s := &benchSystem{
		sh:         sh,
		table:      newKernelTable(sh.entities(), sh.groups()),
		groupID:    make(map[string]int32, sh.groups()),
		epoch:      time.Now(),
		fetchDone:  make([]atomic.Int64, sh.Bindings),
		cgroupRoot: root + "/",
		parentFile: filepath.Join(filepath.Dir(root), "tasks"),
	}
	for g := 0; g < sh.groups(); g++ {
		s.groupID[sh.groupDir(g)] = int32(g)
	}
	if filesDir != "" {
		s.controlFile = map[string]string{}
		for _, name := range []string{"cpu.shares", "tasks"} {
			s.controlFile[name] = filepath.Join(filesDir, name)
			if err := os.WriteFile(s.controlFile[name], nil, 0o644); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *benchSystem) now() int64 { return int64(time.Since(s.epoch)) }

// fetchReturned stamps the return of driver b's latest Fetch.
func (s *benchSystem) fetchReturned(b int) { s.fetchDone[b].Store(s.now()) }

// arm starts sample-to-kernel collection into a buffer that holds the given
// number of samples from the given number of cycles.
func (s *benchSystem) arm(capacity, cycles int) { s.s2k = newSampleBuf(capacity, cycles) }

// writes is the number of calls that reached the System so far.
func (s *benchSystem) writes() int64 {
	var n int64
	for i := range s.kinds {
		n += s.kinds[i].Load()
	}
	return n
}

// sysSpan is the open span of one System call in a traced run.
type sysSpan struct {
	start int64
	idx   int32
}

// enter opens the call's span once its owning binding is known.
func (s *benchSystem) enter(binding int) sysSpan {
	if s.tr == nil {
		return sysSpan{}
	}
	start, idx := s.tr.enter(layerSystem, binding)
	return sysSpan{start, idx}
}

// done finishes one write: close its span, count it, and stamp the time
// since the owning driver's latest sample landed.
func (s *benchSystem) done(kind, binding int, sp sysSpan, err error) error {
	if s.tr != nil {
		s.tr.exit(layerSystem, binding, sp.start, sp.idx)
	}
	s.kinds[kind].Add(1)
	if err != nil {
		s.writeErrs.Add(1)
	}
	if s.s2k != nil {
		s.s2k.add(time.Duration(s.now() - s.fetchDone[binding].Load()))
	}
	return err
}

func (s *benchSystem) bindingOfThread(i int) int  { return i / s.sh.entitiesPerBinding() }
func (s *benchSystem) bindingOfGroup(g int32) int { return int(g) / s.sh.groupsPerBinding() }

// reject counts a call the System refuses: in these workloads every target
// exists, so a refusal is a failed operation, never a benign race.
func (s *benchSystem) reject(kind int, err error) error {
	s.kinds[kind].Add(1)
	s.writeErrs.Add(1)
	return err
}

// parseInt reads the decimal number a control-file write carries.
func parseInt(data []byte) (int, bool) {
	if len(data) == 0 || len(data) > 9 {
		return 0, false
	}
	v := 0
	for _, c := range data {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// threadIndex maps a tid to its table index.
func (s *benchSystem) threadIndex(tid int) (int, bool) {
	i := tid - tidBase
	return i, i >= 0 && i < len(s.table.Nice)
}

// Setpriority implements oslinux.System. The threads are synthetic, so the
// nice value lands in the table only.
func (s *benchSystem) Setpriority(tid, nice int) error {
	i, ok := s.threadIndex(tid)
	if !ok {
		return s.reject(kindNice, syscall.ESRCH)
	}
	b := s.bindingOfThread(i)
	sp := s.enter(b)
	s.table.Nice[i] = int32(nice)
	return s.done(kindNice, b, sp, nil)
}

// splitCgroupPath resolves root/<group>[/<file>] to the group's index.
func (s *benchSystem) splitCgroupPath(path string) (g int32, file string, ok bool) {
	rest, found := strings.CutPrefix(path, s.cgroupRoot)
	if !found {
		return 0, "", false
	}
	dir, file, _ := strings.Cut(rest, "/")
	g, ok = s.groupID[dir]
	return g, file, ok
}

// MkdirAll implements oslinux.System: the cgroup appears in the table.
func (s *benchSystem) MkdirAll(path string) error {
	g, file, ok := s.splitCgroupPath(path)
	if !ok || file != "" {
		return s.reject(kindMkdir, &os.PathError{Op: "mkdir", Path: path, Err: syscall.EPERM})
	}
	b := s.bindingOfGroup(g)
	sp := s.enter(b)
	s.table.Exists[g] = true
	return s.done(kindMkdir, b, sp, nil)
}

// Remove implements oslinux.System.
func (s *benchSystem) Remove(path string) error {
	g, file, ok := s.splitCgroupPath(path)
	if !ok || file != "" || !s.table.Exists[g] {
		return s.reject(kindRemove, syscall.ENOENT)
	}
	b := s.bindingOfGroup(g)
	sp := s.enter(b)
	s.table.Exists[g] = false
	s.table.Shares[g] = unset
	return s.done(kindRemove, b, sp, nil)
}

// WriteFile implements oslinux.System for a cgroup's cpu.shares and tasks
// files and for the parent tasks file a RestoreThread writes to.
func (s *benchSystem) WriteFile(path string, data []byte) error {
	v, isNum := parseInt(data)
	if path == s.parentFile {
		i, ok := s.threadIndex(v)
		if !isNum || !ok {
			return s.reject(kindRestore, syscall.ESRCH)
		}
		b := s.bindingOfThread(i)
		sp := s.enter(b)
		s.table.Group[i] = unset
		return s.done(kindRestore, b, sp, nil)
	}
	g, file, ok := s.splitCgroupPath(path)
	kind := kindShares
	if file == "tasks" {
		kind = kindMove
	}
	if !ok || !isNum || !s.table.Exists[g] || (file != "tasks" && file != "cpu.shares") {
		return s.reject(kind, &os.PathError{Op: "open", Path: path, Err: syscall.ENOENT})
	}
	i, isThread := s.threadIndex(v)
	if kind == kindMove && !isThread {
		return s.reject(kind, syscall.ESRCH)
	}
	b := s.bindingOfGroup(g)
	sp := s.enter(b)
	var err error
	if s.controlFile != nil {
		err = writeControlFile(s.controlFile[file], data)
	}
	if err == nil {
		if kind == kindShares {
			s.table.Shares[g] = int32(v)
		} else {
			s.table.Group[i] = g
		}
	}
	return s.done(kind, b, sp, err)
}

// writeControlFile is what oslinux's host binding does for a cgroup
// control file: open for writing without creating, one write, close.
func writeControlFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadFile implements oslinux.ReadSystem, which makes the Control
// observable (thread identity at record time, the reconciler's reads).
// Reads are answered from the table: a regular file keeps only the last
// tid written to it, where a cgroup's tasks file lists every member.
func (s *benchSystem) ReadFile(path string) ([]byte, error) {
	if rest, ok := strings.CutPrefix(path, "/proc/"); ok {
		tidStr, file, _ := strings.Cut(rest, "/")
		tid, err := strconv.Atoi(tidStr)
		i, ok := s.threadIndex(tid)
		if err != nil || file != "stat" || !ok {
			return nil, syscall.ENOENT
		}
		nice := s.table.Nice[i]
		if nice == unset {
			nice = 0
		}
		// Fields 1-2, state, fifteen fields the parser skips, nice (19),
		// num_threads, itrealvalue, starttime (22).
		return fmt.Appendf(nil, "%d (op) S 0 0 0 0 0 0 0 0 0 0 0 0 0 0 20 %d 1 0 %d 0 0\n",
			tid, nice, 1000+i), nil
	}
	g, file, ok := s.splitCgroupPath(path)
	if !ok || !s.table.Exists[g] {
		return nil, syscall.ENOENT
	}
	switch file {
	case "cpu.shares":
		return strconv.AppendInt(nil, int64(s.table.Shares[g]), 10), nil
	case "tasks":
		// Only the group's own operators are ever moved into it.
		var out []byte
		first, n := int(g), 1
		if !s.sh.PerOpCgroups {
			first, n = int(g)*s.sh.OpsPerQuery, s.sh.OpsPerQuery
		}
		for i := first; i < first+n; i++ {
			if s.table.Group[i] == g {
				out = strconv.AppendInt(out, int64(tidBase+i), 10)
				out = append(out, '\n')
			}
		}
		return out, nil
	}
	return nil, syscall.ENOENT
}
