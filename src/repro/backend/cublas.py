"""The cuBLAS-like primitive layer.

Everything the tile schedulers need: typed device matrices/vectors,
async sub-matrix transfers (``set_matrix_async`` / ``get_matrix_async``
mirroring ``cublasSetMatrixAsync`` / ``cublasGetMatrixAsync``), and
async gemm/axpy kernels whose durations come from the machine's
ground-truth kernel models.

Data policy: when the destination/source arrays exist, the operation's
payload performs the real copy/compute at simulated completion time;
otherwise only timing is simulated.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import BlasError, SimulationError
from ..sim.device import GpuDevice
from ..sim.faults import corrupt_array, tile_checksum
from ..sim.memory import DeviceBuffer, HostArray
from ..sim.stream import Operation, Stream
from ..units import dtype_size


class DeviceMatrix:
    """A rows x cols matrix in simulated device memory."""

    __slots__ = ("rows", "cols", "dtype", "buf", "_device")

    def __init__(self, device: GpuDevice, rows: int, cols: int, dtype,
                 with_data: bool, name: str = "") -> None:
        if rows <= 0 or cols <= 0:
            raise BlasError(f"non-positive matrix dims: {(rows, cols)}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.dtype = np.dtype(dtype)
        nbytes = rows * cols * dtype_size(dtype)
        self.buf = device.alloc(
            nbytes, shape=(rows, cols), dtype=dtype, with_data=with_data, name=name
        )
        self._device = device

    @property
    def nbytes(self) -> int:
        return self.buf.nbytes

    @property
    def array(self) -> Optional[np.ndarray]:
        return self.buf.array

    def free(self) -> None:
        self._device.free(self.buf)


class DeviceVector:
    """A length-n vector in simulated device memory."""

    __slots__ = ("n", "dtype", "buf", "_device")

    def __init__(self, device: GpuDevice, n: int, dtype, with_data: bool,
                 name: str = "") -> None:
        if n <= 0:
            raise BlasError(f"non-positive vector length: {n}")
        self.n = int(n)
        self.dtype = np.dtype(dtype)
        nbytes = n * dtype_size(dtype)
        self.buf = device.alloc(
            nbytes, shape=(n,), dtype=dtype, with_data=with_data, name=name
        )
        self._device = device

    @property
    def nbytes(self) -> int:
        return self.buf.nbytes

    @property
    def array(self) -> Optional[np.ndarray]:
        return self.buf.array

    def free(self) -> None:
        self._device.free(self.buf)


class MatrixView:
    """A top-left window into a :class:`DeviceMatrix`.

    Lets a persistent ``T x T`` slot (double buffering in the
    cuBLASXt-like baseline) serve ragged edge tiles without
    reallocation: transfers and kernels see the window's dims, payloads
    write through to the backing array.
    """

    __slots__ = ("base", "rows", "cols", "dtype")

    def __init__(self, base: DeviceMatrix, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0 or rows > base.rows or cols > base.cols:
            raise BlasError(
                f"invalid {rows}x{cols} view of {base.rows}x{base.cols} matrix"
            )
        self.base = base
        self.rows = int(rows)
        self.cols = int(cols)
        self.dtype = base.dtype

    @property
    def buf(self):
        return self.base.buf

    @property
    def array(self) -> Optional[np.ndarray]:
        a = self.base.array
        if a is None:
            return None
        return a[: self.rows, : self.cols]


_UNPINNED = "async transfer requires pinned host memory (operand {})"


def _check_window(host: HostArray, row0: int, col0: int,
                  rows: int, cols: int) -> None:
    """A matrix transfer's host side: pinned, 2-D, holding the window."""
    if not host.pinned:
        raise BlasError(_UNPINNED.format(host.name))
    if len(host.shape) != 2:
        raise BlasError(f"matrix transfer on non-matrix host operand {host.name}")
    h_rows, h_cols = host.shape
    if row0 < 0 or col0 < 0 or row0 + rows > h_rows or col0 + cols > h_cols:
        raise SimulationError(
            f"transfer window [{row0}:{row0 + rows}, {col0}:{col0 + cols}] "
            f"outside host operand {host.name} of shape {host.shape}"
        )


def _check_span(host: HostArray, off: int, n: int) -> None:
    """A vector transfer's host side: pinned, 1-D, holding the span."""
    if not host.pinned:
        raise BlasError(_UNPINNED.format(host.name))
    if len(host.shape) != 1:
        raise BlasError(f"vector transfer on non-vector host operand {host.name}")
    if off < 0 or off + n > host.shape[0]:
        raise SimulationError(
            f"transfer span [{off}:{off + n}] outside host operand "
            f"{host.name} of length {host.shape[0]}"
        )


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

    def alloc_matrix(self, rows: int, cols: int, dtype, with_data: bool = False,
                     name: str = "") -> DeviceMatrix:
        return DeviceMatrix(self.device, rows, cols, dtype, with_data, name)

    def alloc_vector(self, n: int, dtype, with_data: bool = False,
                     name: str = "") -> DeviceVector:
        return DeviceVector(self.device, n, dtype, with_data, name)

    # ------------------------------------------------------------------
    # transfers (cublasSetMatrixAsync / cublasGetMatrixAsync style)
    # ------------------------------------------------------------------

    def set_matrix_async(
        self,
        host: HostArray,
        row0: int,
        col0: int,
        dst: DeviceMatrix,
        stream: Stream,
        tag: str = "",
    ) -> Operation:
        """Copy host[row0:row0+dst.rows, col0:col0+dst.cols] to device."""
        rows, cols = dst.rows, dst.cols
        _check_window(host, row0, col0, rows, cols)
        payload = verify = corrupt = None
        if host.array is not None and dst.array is not None:
            src_view = host.array[row0:row0 + rows, col0:col0 + cols]

            def payload() -> None:
                dst.buf.check_alive()
                dst.array[:, :] = src_view

            if self.device.faults is not None:
                verify, corrupt = self._integrity_hooks(
                    lambda: src_view, lambda: dst.array)

        if not tag and self._tagged:
            tag = f"h2d:{host.name}[{row0},{col0}]"
        return self.device.memcpy_h2d_async(
            rows * cols * dst.dtype.itemsize, stream, tag, payload, verify,
            corrupt)

    def get_matrix_async(
        self,
        src: DeviceMatrix,
        host: HostArray,
        row0: int,
        col0: int,
        stream: Stream,
        tag: str = "",
    ) -> Operation:
        """Copy the device matrix into host[row0:.., col0:..]."""
        rows, cols = src.rows, src.cols
        _check_window(host, row0, col0, rows, cols)
        payload = verify = corrupt = None
        if host.array is not None and src.array is not None:
            dst_view = host.array[row0:row0 + rows, col0:col0 + cols]
            src_mat = src

            def payload() -> None:
                src_mat.buf.check_alive()
                dst_view[:, :] = src_mat.array

            if self.device.faults is not None:
                verify, corrupt = self._integrity_hooks(
                    lambda: src_mat.array, lambda: dst_view)

        if not tag and self._tagged:
            tag = f"d2h:{host.name}[{row0},{col0}]"
        return self.device.memcpy_d2h_async(
            rows * cols * src.dtype.itemsize, stream, tag, payload, verify,
            corrupt)

    def set_vector_async(
        self,
        host: HostArray,
        off: int,
        dst: DeviceVector,
        stream: Stream,
        tag: str = "",
    ) -> Operation:
        """Copy host[off:off+dst.n] to the device vector."""
        n = dst.n
        _check_span(host, off, n)
        payload = verify = corrupt = None
        if host.array is not None and dst.array is not None:
            src_view = host.array[off:off + n]

            def payload() -> None:
                dst.buf.check_alive()
                dst.array[:] = src_view

            if self.device.faults is not None:
                verify, corrupt = self._integrity_hooks(
                    lambda: src_view, lambda: dst.array)

        if not tag and self._tagged:
            tag = f"h2d:{host.name}[{off}]"
        return self.device.memcpy_h2d_async(
            n * dst.dtype.itemsize, stream, tag, payload, verify, corrupt)

    def get_vector_async(
        self,
        src: DeviceVector,
        host: HostArray,
        off: int,
        stream: Stream,
        tag: str = "",
    ) -> Operation:
        """Copy the device vector into host[off:off+src.n]."""
        n = src.n
        _check_span(host, off, n)
        payload = verify = corrupt = None
        if host.array is not None and src.array is not None:
            dst_view = host.array[off:off + n]
            src_vec = src

            def payload() -> None:
                src_vec.buf.check_alive()
                dst_view[:] = src_vec.array

            if self.device.faults is not None:
                verify, corrupt = self._integrity_hooks(
                    lambda: src_vec.array, lambda: dst_view)

        if not tag and self._tagged:
            tag = f"d2h:{host.name}[{off}]"
        return self.device.memcpy_d2h_async(
            n * src.dtype.itemsize, stream, tag, payload, verify, corrupt)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------

    def gemm_async(
        self,
        a: DeviceMatrix,
        b: DeviceMatrix,
        c: DeviceMatrix,
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
        m, k = a.rows, a.cols
        if transb:
            n, k2 = b.rows, b.cols
        else:
            k2, n = b.rows, b.cols
        if k != k2 or (c.rows, c.cols) != (m, n):
            raise BlasError(
                f"gemm tile mismatch: A {a.rows}x{a.cols}, "
                f"{'B^T' if transb else 'B'} {b.rows}x{b.cols}, "
                f"C {c.rows}x{c.cols}"
            )
        if not (a.dtype == b.dtype == c.dtype):
            raise BlasError("gemm tiles must share a dtype")
        duration = self._kernels.gemm_time(m, n, k, a.dtype)
        payload = None
        if a.array is not None and b.array is not None and c.array is not None:
            dt = a.dtype.type

            def payload() -> None:
                c.buf.check_alive()
                rhs = b.array.T if transb else b.array
                c.array[:, :] = dt(alpha) * (a.array @ rhs) + dt(beta) * c.array

        if not tag and self._tagged:
            tag = f"gemm{m}x{n}x{k}"
        return self.device.launch_async(duration, stream, tag,
                                        2.0 * m * n * k, payload)

    def gemv_async(
        self,
        a,
        x: DeviceVector,
        y: DeviceVector,
        stream: Stream,
        alpha: float = 1.0,
        beta: float = 1.0,
        tag: str = "",
    ) -> Operation:
        """Launch ``y = alpha*A@x + beta*y`` on device operands."""
        m, n = a.rows, a.cols
        if x.n != n or y.n != m:
            raise BlasError(
                f"gemv shape mismatch: A {m}x{n}, x {x.n}, y {y.n}"
            )
        if not (a.dtype == x.dtype == y.dtype):
            raise BlasError("gemv operands must share a dtype")
        duration = self._kernels.gemv_time(m, n, a.dtype)
        payload = None
        if a.array is not None and x.array is not None and y.array is not None:
            dt = a.dtype.type

            def payload() -> None:
                y.buf.check_alive()
                y.array[:] = dt(alpha) * (a.array @ x.array) + dt(beta) * y.array

        if not tag and self._tagged:
            tag = f"gemv{m}x{n}"
        return self.device.launch_async(duration, stream, tag,
                                        2.0 * m * n, payload)

    def axpy_async(
        self,
        x: DeviceVector,
        y: DeviceVector,
        stream: Stream,
        alpha: float = 1.0,
        tag: str = "",
    ) -> Operation:
        """Launch ``y = alpha*x + y`` on device vectors."""
        if x.n != y.n:
            raise BlasError(f"axpy length mismatch: {x.n} vs {y.n}")
        if x.dtype != y.dtype:
            raise BlasError("axpy vectors must share a dtype")
        duration = self._kernels.axpy_time(x.n, x.dtype)
        payload = None
        if x.array is not None and y.array is not None:
            dt = x.dtype.type

            def payload() -> None:
                y.buf.check_alive()
                y.array[:] = dt(alpha) * x.array + y.array

        if not tag and self._tagged:
            tag = f"axpy{x.n}"
        return self.device.launch_async(duration, stream, tag,
                                        2.0 * x.n, payload)
