package hstreams

import "fmt"

// Buffer is a typed allocation visible to both host and devices, the
// analogue of an hStreams buffer created with hStreams_app_create_buf.
// The host side aliases the caller's slice; each device holds a lazily
// allocated shadow copy that kernels operate on in the functional
// model. Virtual buffers (AllocVirtual) carry only a size and move no
// data — they exist for paper-scale timing-only experiments.
type Buffer struct {
	name     string
	elems    int
	elemSize int

	// move copies elements [off, off+n) between host and the given
	// device shadow (h2d chooses the direction). nil for virtual
	// buffers.
	move func(devIdx, off, n int, h2d bool)
	// devAny returns the device shadow slice for DeviceSlice.
	devAny func(devIdx int) interface{}
	// hostAny returns the host slice for HostSlice.
	hostAny interface{}
}

// Name reports the buffer's diagnostic name.
func (b *Buffer) Name() string { return b.name }

// Len reports the element count.
func (b *Buffer) Len() int { return b.elems }

// Bytes reports the buffer size in bytes.
func (b *Buffer) Bytes() int64 { return int64(b.elems) * int64(b.elemSize) }

// Alloc1D registers a host slice as a buffer usable by every device in
// the context. The buffer aliases host: D2H transfers write back into
// it. The element size is derived from T.
func Alloc1D[T any](c *Context, name string, host []T) *Buffer {
	var zero T
	shadows := make([][]T, c.NumDevices())
	b := &Buffer{
		name:     name,
		elems:    len(host),
		elemSize: int(sizeOf(zero)),
		hostAny:  host,
	}
	ensure := func(devIdx int) []T {
		if shadows[devIdx] == nil {
			shadows[devIdx] = make([]T, len(host))
		}
		return shadows[devIdx]
	}
	b.move = func(devIdx, off, n int, h2d bool) {
		shadow := ensure(devIdx)
		if h2d {
			copy(shadow[off:off+n], host[off:off+n])
		} else {
			copy(host[off:off+n], shadow[off:off+n])
		}
	}
	b.devAny = func(devIdx int) interface{} { return ensure(devIdx) }
	return b
}

// AllocVirtual registers a data-less buffer of the given element count
// and element size. Transfers of virtual buffers cost the modeled time
// but move nothing; kernels must not dereference them.
func AllocVirtual(c *Context, name string, elems, elemSize int) *Buffer {
	if elems < 0 || elemSize <= 0 {
		panic(fmt.Sprintf("hstreams: invalid virtual buffer %q (%d x %dB)", name, elems, elemSize))
	}
	return &Buffer{name: name, elems: elems, elemSize: elemSize}
}

// Alloc registers a buffer of elems elements of T in the context's
// mode: host itself (Alloc1D) when the context executes kernels, and
// otherwise a virtual buffer of T's element size (AllocVirtual), which
// ignores host. A functional host slice must hold exactly elems
// elements.
func Alloc[T any](c *Context, name string, host []T, elems int) *Buffer {
	if c.cfg.ExecuteKernels {
		if len(host) != elems {
			panic(fmt.Sprintf("hstreams: buffer %q holds %d elements, want %d", name, len(host), elems))
		}
		return Alloc1D(c, name, host)
	}
	var zero T
	return AllocVirtual(c, name, elems, int(sizeOf(zero)))
}

// DeviceSlice returns the device-resident shadow of b on device devIdx,
// allocating it on first use. It panics when the buffer's element type
// is not T or the buffer is virtual — both programming errors.
func DeviceSlice[T any](b *Buffer, devIdx int) []T {
	if b.devAny == nil {
		panic(fmt.Sprintf("hstreams: DeviceSlice on virtual buffer %q", b.name))
	}
	s, ok := b.devAny(devIdx).([]T)
	if !ok {
		panic(fmt.Sprintf("hstreams: DeviceSlice type mismatch on buffer %q", b.name))
	}
	return s
}

// HostSlice returns the host-side slice of b. It panics for virtual
// buffers or a type mismatch.
func HostSlice[T any](b *Buffer) []T {
	if b.hostAny == nil {
		panic(fmt.Sprintf("hstreams: HostSlice on virtual buffer %q", b.name))
	}
	s, ok := b.hostAny.([]T)
	if !ok {
		panic(fmt.Sprintf("hstreams: HostSlice type mismatch on buffer %q", b.name))
	}
	return s
}

// sizeOf reports the in-memory size of v's type for the element sizes
// the platform uses. Supporting a closed set keeps the buffer model
// free of reflection on hot paths while covering every application in
// the repository.
func sizeOf(v interface{}) uintptr {
	switch v.(type) {
	case float64, int64, uint64, complex64:
		return 8
	case float32, int32, uint32:
		return 4
	case int16, uint16:
		return 2
	case int8, uint8, bool:
		return 1
	case int, uint:
		return 8
	default:
		panic(fmt.Sprintf("hstreams: unsupported buffer element type %T", v))
	}
}
