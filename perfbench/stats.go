package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1); it
// sorts xs in place. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle of xs, the mean of the two middle values
// for an even count; it sorts xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// statusMiB reads a memory figure, such as VmHWM (the peak resident
// set) or VmRSS, from /proc/self/status.
func statusMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != field+":" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// offHeap returns n zeroed Ts in anonymous memory outside the Go heap,
// which is never freed. The service workloads keep their key batches
// and request records there, so the garbage collector paces itself by
// the heap of the program under test alone. T must hold no pointers.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	if size == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// scaled returns xs multiplied by f, for printing.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
