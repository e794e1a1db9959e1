package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// A shared host's speed drifts: over minutes, the other tenants of the
// physical machine slowed the same work by up to half, in CPU time as
// well as wall time, through the caches and cores they share.  The
// benchmark therefore measures the host alongside the program: a fixed
// reference computation, part of the benchmark and not of the program,
// runs between solves, and the program's CPU times are scaled by how
// much slower or faster than its nominal time the reference ran in the
// same stretch of the run.  A timing metric is thus CPU time at the
// reference host speed: a change to the program moves it, a change of
// neighbours moves it far less.  The raw figures are in each run's
// info line, and bench.ref_ms reports the reference itself.

// refNominalMS is the reference computation's CPU time, in ms, on the
// 2-vCPU virtual machine the benchmark was calibrated on, at a quiet
// time.  It only sets the scale: any fixed value gives comparable runs.
const refNominalMS = 4.0

// refEvery is how much process CPU time may pass between two
// reference samples in a library run (about 5% overhead).
const refEvery = 150 * time.Millisecond

// refKernel is the reference computation: the kinds of work a covering
// solver does (bitset scans, sparse floating-point sweeps, hash-table
// probes, sorting) on fixed data, allocating nothing once built.  Its
// few megabytes of data are mapped outside the Go heap: on the heap
// they would raise the collector's target and so make the program's
// collections rarer than they are without the benchmark.
type refKernel struct {
	maps    [][]byte
	rows    []uint64 // refRows bitset rows of refWords words, a random 0/1 matrix
	rowPtr  []int32  // a sparse matrix in row-compressed form
	colIdx  []int32
	cost    []float64
	lam     []float64
	table   []uint64 // an open-addressed hash table, half full
	keys    []uint64
	scratch []uint64
}

const (
	refRows     = 2000
	refWords    = 16 // columns / 64
	refScanCols = 96
	refSparse   = 12000
	refCols     = 100000
	refTableLog = 18
	refLookups  = 60000
	refSort     = 16000
)

func newRefKernel() (*refKernel, error) {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{}
	var err error
	if k.rows, err = offHeap[uint64](k, refRows*refWords); err != nil {
		return nil, err
	}
	for i := 0; i < refRows; i++ {
		for j := 0; j < 6; j++ {
			c := rng.Intn(refWords * 64)
			k.rows[i*refWords+c/64] |= 1 << (c % 64)
		}
	}
	if k.rowPtr, err = offHeap[int32](k, refSparse+1); err != nil {
		return nil, err
	}
	if k.colIdx, err = offHeap[int32](k, refSparse*8); err != nil {
		return nil, err
	}
	for i := range k.colIdx {
		k.colIdx[i] = int32(rng.Intn(refCols))
	}
	for i := range k.rowPtr {
		k.rowPtr[i] = int32(8 * i)
	}
	if k.cost, err = offHeap[float64](k, refCols); err != nil {
		return nil, err
	}
	for i := range k.cost {
		k.cost[i] = 1 + rng.Float64()
	}
	if k.lam, err = offHeap[float64](k, refSparse); err != nil {
		return nil, err
	}
	if k.table, err = offHeap[uint64](k, 1<<refTableLog); err != nil {
		return nil, err
	}
	for i := 0; i < len(k.table)/2; i++ {
		k.insert(rng.Uint64() | 1)
	}
	if k.keys, err = offHeap[uint64](k, refSort); err != nil {
		return nil, err
	}
	for i := range k.keys {
		k.keys[i] = rng.Uint64()
	}
	if k.scratch, err = offHeap[uint64](k, refSort); err != nil {
		return nil, err
	}
	return k, nil
}

// offHeap returns n zeroed values of T in an anonymous mapping that k
// owns.  T must hold no pointers: the collector does not see the
// mapping.
func offHeap[T uint64 | int32 | float64](k *refKernel, n int) ([]T, error) {
	size := n * int(unsafe.Sizeof(T(0)))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference data: %w", err)
	}
	k.maps = append(k.maps, b)
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// release unmaps the kernel's data; k is unusable afterwards.
func (k *refKernel) release() {
	for _, b := range k.maps {
		_ = syscall.Munmap(b) // fails only for a mapping that is not ours
	}
	k.maps = nil
}

func refHash(x uint64) uint64 {
	x ^= x >> 31
	x *= 0x7fb5d329728ea185
	x ^= x >> 27
	x *= 0x81dadef4bc2dd44d
	return x ^ x>>33
}

func (k *refKernel) insert(key uint64) {
	mask := uint64(len(k.table) - 1)
	for i := refHash(key) & mask; ; i = (i + 1) & mask {
		if k.table[i] == 0 || k.table[i] == key {
			k.table[i] = key
			return
		}
	}
}

// run performs the computation once and returns a value derived from
// all of it, so that none of it can be optimised away.
func (k *refKernel) run() uint64 {
	var sum uint64
	for c := 0; c < refScanCols; c++ {
		w, b := c%refWords, uint64(1)<<(c*7%64)
		for r := 0; r < len(k.rows); r += refWords {
			if k.rows[r+w]&b != 0 {
				sum += uint64(bits.OnesCount64(k.rows[r+(w+1)%refWords]))
			}
		}
	}
	s := 0.0
	for i := range k.lam {
		m := math.Inf(1)
		for p := k.rowPtr[i]; p < k.rowPtr[i+1]; p++ {
			m = min(m, k.cost[k.colIdx[p]])
		}
		k.lam[i] = 0.5*k.lam[i] + 0.1*m
		s += k.lam[i]
	}
	mask := uint64(len(k.table) - 1)
	for q := uint64(1); q <= refLookups; q++ {
		key := refHash(q)
		for i := key & mask; k.table[i] != 0; i = (i + 1) & mask {
			if k.table[i] == key {
				sum++
				break
			}
		}
	}
	copy(k.scratch, k.keys)
	slices.Sort(k.scratch)
	return sum + k.scratch[refSort/2]>>60 + uint64(s)
}

// hostSpeed samples the reference computation through a run.
type hostSpeed struct {
	k       *refKernel
	samples []float64     // reference CPU ms, in order
	at      []time.Time   // when each sample was taken
	spent   time.Duration // process CPU time the samples took
	last    time.Duration // process CPU time at the end of the last sample
	sink    uint64
}

func newHostSpeed() (*hostSpeed, error) {
	k, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	return &hostSpeed{k: k}, nil
}

// sample runs the reference twice and records the CPU time of the
// second run: the first brings its data back into the caches, which
// the solves in between have filled with their own, so that what is
// timed is the host's speed and not what ran before.  The calling
// goroutine is locked to its thread and timed by the thread's own CPU
// clock, so work of other goroutines is never counted in.
func (h *hostSpeed) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0 := cpuNow()
	h.sink += h.k.run()
	t0 := threadCPU()
	h.sink += h.k.run()
	t1, p1 := threadCPU(), cpuNow()
	h.samples = append(h.samples, ms(t1-t0))
	h.at = append(h.at, time.Now())
	h.spent += p1 - p0
	h.last = p1
}

// maybe samples when refEvery of process CPU time has passed since
// the last sample.
func (h *hostSpeed) maybe() {
	if cpuNow()-h.last >= refEvery {
		h.sample()
	}
}

// factor is the scale for CPU times measured while samples[from:] were
// taken: the nominal reference time over their median.
func (h *hostSpeed) factor(from int) float64 {
	return ratio(refNominalMS, median(append([]float64(nil), h.samples[from:]...)))
}

// factorNear is factor over the samples from from on that were taken
// within refWindow of t, or over all of them if fewer than three were.
func (h *hostSpeed) factorNear(from int, t time.Time) float64 {
	var near []float64
	for i := from; i < len(h.samples); i++ {
		if d := h.at[i].Sub(t); d > -refWindow && d < refWindow {
			near = append(near, h.samples[i])
		}
	}
	if len(near) < 3 {
		return h.factor(from)
	}
	return ratio(refNominalMS, median(near))
}

// refWindow is how near in time the samples that scale a request's
// CPU time must be: the host's speed holds for seconds, not minutes.
const refWindow = 2 * time.Second

// refMS is the median reference time of the whole run.
func (h *hostSpeed) refMS() float64 { return median(append([]float64(nil), h.samples...)) }

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID on Linux.
const clockThreadCPUTime = 3
