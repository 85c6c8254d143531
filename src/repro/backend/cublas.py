"""The cuBLAS-like primitive layer.

Everything the tile schedulers need: device tiles, one pair of async
tile transfers (``set_async`` / ``get_async``, mirroring
``cublasSet{Matrix,Vector}Async`` / ``cublasGet{Matrix,Vector}Async``),
and async gemm/gemv/axpy kernels whose durations come from the
machine's ground-truth kernel models.

A device tile is a :class:`~repro.sim.memory.DeviceBuffer` keyed by its
``shape``: ``(rows, cols)`` for a matrix tile, ``(n,)`` for a vector
chunk.  A transfer names the tile's host ``origin``, one index per
axis; its byte count, bounds check and default tag follow from the
shape, so matrix tiles and vector chunks move through the same calls.
Free a tile with ``device.free``.

Data policy: when the destination/source arrays exist, the operation's
payload performs the real copy/compute at simulated completion time;
otherwise only timing is simulated.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import BlasError, SimulationError
from ..sim.device import GpuDevice
from ..sim.faults import corrupt_array, tile_checksum
from ..sim.memory import DeviceBuffer, HostArray
from ..sim.stream import Operation, Stream
from ..units import dtype_size


def window(origin: Tuple[int, ...], shape: Tuple[int, ...]
           ) -> Tuple[slice, ...]:
    """Numpy index of the block of ``shape`` at ``origin``."""
    return tuple([slice(o, o + s) for o, s in zip(origin, shape)])


def _extent(shape: Tuple[int, ...]) -> str:
    """``"4x5"`` for a matrix tile, ``"100"`` for a vector chunk."""
    return "x".join(map(str, shape))


class MatrixView:
    """A top-left window into a matrix tile.

    Lets a persistent ``T x T`` slot (double buffering in the
    cuBLASXt-like baseline) serve ragged edge tiles without
    reallocation: transfers and kernels see the window's shape, payloads
    write through to the backing array.
    """

    __slots__ = ("base", "shape", "dtype", "nbytes")

    def __init__(self, base: DeviceBuffer, shape: Tuple[int, int]) -> None:
        rows, cols = shape
        base_rows, base_cols = base.shape
        if rows <= 0 or cols <= 0 or rows > base_rows or cols > base_cols:
            raise BlasError(
                f"invalid {rows}x{cols} view of {base_rows}x{base_cols} matrix"
            )
        self.base = base
        self.shape = tuple(shape)
        self.dtype = base.dtype
        self.nbytes = rows * cols * base.dtype.itemsize

    @property
    def array(self) -> Optional[np.ndarray]:
        a = self.base.array
        if a is None:
            return None
        rows, cols = self.shape
        return a[:rows, :cols]

    def check_alive(self) -> None:
        self.base.check_alive()


#: What transfers and kernels accept: a device tile or a view of one.
Tile = Union[DeviceBuffer, MatrixView]

_UNPINNED = "async transfer requires pinned host memory (operand {})"


def _check_host(host: HostArray, origin: Tuple[int, ...],
                shape: Tuple[int, ...]) -> None:
    """A transfer's host side: pinned, of the tile's rank, holding the
    tile at ``origin``.

    Unrolled per rank rather than looped over the axes: every transfer
    runs this check, and a per-axis loop costs several times as much.
    """
    if not host.pinned:
        raise BlasError(_UNPINNED.format(host.name))
    h_shape = host.shape
    rank = len(shape)
    if len(h_shape) != rank:
        kind = "vector" if rank == 1 else "matrix"
        raise BlasError(
            f"{kind} transfer on non-{kind} host operand {host.name}")
    if rank == 2:
        (r0, c0), (rows, cols), (h_rows, h_cols) = origin, shape, h_shape
        if 0 <= r0 and 0 <= c0 and r0 + rows <= h_rows and c0 + cols <= h_cols:
            return
        where = f"window [{r0}:{r0 + rows}, {c0}:{c0 + cols}]"
        what = f"of shape {h_shape}"
    else:
        (off,), (n,), (h_n,) = origin, shape, h_shape
        if 0 <= off and off + n <= h_n:
            return
        where = f"span [{off}:{off + n}]"
        what = f"of length {h_n}"
    raise SimulationError(
        f"transfer {where} outside host operand {host.name} {what}")


class CublasContext:
    """A cuBLAS handle bound to one simulated device."""

    def __init__(self, device: GpuDevice) -> None:
        self.device = device
        self._kernels = device.config.kernels
        #: A tag is read only by the trace and by fault diagnostics, so
        #: a call without one gets a default name only when either is on.
        self._tagged = device.trace is not None or device.faults is not None

    @staticmethod
    def _integrity_hooks(src_getter, dst_getter):
        """Checksum verify / corruption hooks for one transfer.

        Only built in compute mode with fault injection active: the
        device corrupts the destination via ``corrupt`` and detects it
        by the ``verify`` checksum mismatch (a re-run of the transfer
        payload then overwrites the damage with good source data).
        """

        def verify() -> bool:
            return tile_checksum(dst_getter()) == tile_checksum(src_getter())

        def corrupt() -> None:
            corrupt_array(dst_getter())

        return verify, corrupt

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def alloc(self, shape: Tuple[int, ...], dtype, with_data: bool = False,
              name: str = "") -> DeviceBuffer:
        """A device tile of ``shape``: ``(rows, cols)`` or ``(n,)``."""
        if min(shape) <= 0:
            if len(shape) == 1:
                raise BlasError(f"non-positive vector length: {shape[0]}")
            raise BlasError(f"non-positive matrix dims: {tuple(shape)}")
        return self.device.alloc(math.prod(shape) * dtype_size(dtype),
                                 shape=shape, dtype=dtype,
                                 with_data=with_data, name=name)

    # ------------------------------------------------------------------
    # transfers (cublasSet/GetMatrixAsync, cublasSet/GetVectorAsync)
    # ------------------------------------------------------------------

    def set_async(
        self,
        host: HostArray,
        origin: Tuple[int, ...],
        dst: Tile,
        stream: Stream,
        tag: str = "",
    ) -> Operation:
        """Copy the block of ``dst.shape`` at ``origin`` of ``host`` to
        the device tile ``dst``."""
        shape = dst.shape
        _check_host(host, origin, shape)
        payload = verify = corrupt = None
        if host.array is not None and dst.array is not None:
            src_view = host.array[window(origin, shape)]

            def payload() -> None:
                dst.check_alive()
                dst.array[...] = src_view

            if self.device.faults is not None:
                verify, corrupt = self._integrity_hooks(
                    lambda: src_view, lambda: dst.array)

        if not tag and self._tagged:
            tag = f"h2d:{host.name}[{','.join(map(str, origin))}]"
        return self.device.memcpy_h2d_async(
            dst.nbytes, stream, tag, payload, verify, corrupt)

    def get_async(
        self,
        src: Tile,
        host: HostArray,
        origin: Tuple[int, ...],
        stream: Stream,
        tag: str = "",
    ) -> Operation:
        """Copy the device tile ``src`` into the block of ``host`` at
        ``origin``."""
        shape = src.shape
        _check_host(host, origin, shape)
        payload = verify = corrupt = None
        if host.array is not None and src.array is not None:
            dst_view = host.array[window(origin, shape)]

            def payload() -> None:
                src.check_alive()
                dst_view[...] = src.array

            if self.device.faults is not None:
                verify, corrupt = self._integrity_hooks(
                    lambda: src.array, lambda: dst_view)

        if not tag and self._tagged:
            tag = f"d2h:{host.name}[{','.join(map(str, origin))}]"
        return self.device.memcpy_d2h_async(
            src.nbytes, stream, tag, payload, verify, corrupt)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------

    def gemm_async(
        self,
        a: Tile,
        b: Tile,
        c: Tile,
        stream: Stream,
        alpha: float = 1.0,
        beta: float = 1.0,
        transb: bool = False,
        tag: str = "",
    ) -> Operation:
        """Launch ``C = alpha*A@op(B) + beta*C`` on device tiles.

        ``transb=True`` uses ``op(B) = B^T`` (the cublas ``CUBLAS_OP_T``
        case the tiled syrk is built on).
        """
        m, k = a.shape
        if transb:
            n, k2 = b.shape
        else:
            k2, n = b.shape
        if k != k2 or c.shape != (m, n):
            raise BlasError(
                f"gemm tile mismatch: A {_extent(a.shape)}, "
                f"{'B^T' if transb else 'B'} {_extent(b.shape)}, "
                f"C {_extent(c.shape)}"
            )
        if not (a.dtype == b.dtype == c.dtype):
            raise BlasError("gemm tiles must share a dtype")
        duration = self._kernels.gemm_time(m, n, k, a.dtype)
        payload = None
        if a.array is not None and b.array is not None and c.array is not None:
            dt = a.dtype.type

            def payload() -> None:
                c.check_alive()
                rhs = b.array.T if transb else b.array
                c.array[:, :] = dt(alpha) * (a.array @ rhs) + dt(beta) * c.array

        if not tag and self._tagged:
            tag = f"gemm{m}x{n}x{k}"
        return self.device.launch_async(duration, stream, tag,
                                        2.0 * m * n * k, payload)

    def gemv_async(
        self,
        a: Tile,
        x: DeviceBuffer,
        y: DeviceBuffer,
        stream: Stream,
        alpha: float = 1.0,
        beta: float = 1.0,
        tag: str = "",
    ) -> Operation:
        """Launch ``y = alpha*A@x + beta*y`` on device operands."""
        m, n = a.shape
        if x.shape != (n,) or y.shape != (m,):
            raise BlasError(
                f"gemv shape mismatch: A {m}x{n}, x {_extent(x.shape)}, "
                f"y {_extent(y.shape)}"
            )
        if not (a.dtype == x.dtype == y.dtype):
            raise BlasError("gemv operands must share a dtype")
        duration = self._kernels.gemv_time(m, n, a.dtype)
        payload = None
        if a.array is not None and x.array is not None and y.array is not None:
            dt = a.dtype.type

            def payload() -> None:
                y.check_alive()
                y.array[:] = dt(alpha) * (a.array @ x.array) + dt(beta) * y.array

        if not tag and self._tagged:
            tag = f"gemv{m}x{n}"
        return self.device.launch_async(duration, stream, tag,
                                        2.0 * m * n, payload)

    def axpy_async(
        self,
        x: DeviceBuffer,
        y: DeviceBuffer,
        stream: Stream,
        alpha: float = 1.0,
        tag: str = "",
    ) -> Operation:
        """Launch ``y = alpha*x + y`` on device vectors."""
        if x.shape != y.shape:
            raise BlasError(f"axpy length mismatch: {_extent(x.shape)} vs "
                            f"{_extent(y.shape)}")
        if x.dtype != y.dtype:
            raise BlasError("axpy vectors must share a dtype")
        (n,) = x.shape
        duration = self._kernels.axpy_time(n, x.dtype)
        payload = None
        if x.array is not None and y.array is not None:
            dt = x.dtype.type

            def payload() -> None:
                y.check_alive()
                y.array[:] = dt(alpha) * x.array + y.array

        if not tag and self._tagged:
            tag = f"axpy{n}"
        return self.device.launch_async(duration, stream, tag,
                                        2.0 * n, payload)
