#include "os/kernel.h"

#include <algorithm>

#include "os/machine.h"
#include "os/network.h"

namespace ditto::os {

Kernel::Kernel(Machine &machine) : machine_(machine)
{
}

sim::Time
Kernel::sliceOffset(const StepCtx &ctx) const
{
    return machine_.cyclesToTime(ctx.cyclesUsed);
}

void
Kernel::runPath(StepCtx &ctx, Thread &t, KernelPath path,
                std::uint64_t iterations)
{
    hw::ExecStats scratch;
    const double cycles = ctx.core.run(
        machine_.kernelCode().image(),
        machine_.kernelCode().blockOf(path), iterations,
        t.execContext(), scratch, /*kernelMode=*/true);
    ctx.cyclesUsed += cycles;
    if (t.statsSink())
        t.statsSink()->add(scratch);
}

void
Kernel::chargeCopy(StepCtx &ctx, Thread &t, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    // The copy block covers ~256B per iteration.
    const std::uint64_t iters = std::max<std::uint64_t>(
        1, (bytes + 255) / 256);
    runPath(ctx, t, KernelPath::CopyChunk, iters);
}

SysResult
Kernel::sysSocketRead(StepCtx &ctx, Thread &t, Socket &sock,
                      Message &out)
{
    runPath(ctx, t, KernelPath::SyscallEntry);
    if (!sock.readable()) {
        sock.addWaiter(&t);
        return SysResult::WouldBlock;
    }
    ++counts_.read;
    runPath(ctx, t, KernelPath::TcpRx);
    out = sock.pop();
    chargeCopy(ctx, t, out.bytes);
    return SysResult::Ok;
}

SysResult
Kernel::sysSocketTryRead(StepCtx &ctx, Thread &t, Socket &sock,
                         Message &out)
{
    runPath(ctx, t, KernelPath::SyscallEntry);
    if (!sock.readable())
        return SysResult::WouldBlock;
    ++counts_.read;
    runPath(ctx, t, KernelPath::TcpRx);
    out = sock.pop();
    chargeCopy(ctx, t, out.bytes);
    return SysResult::Ok;
}

void
Kernel::sysSocketWrite(StepCtx &ctx, Thread &t, Socket &sock,
                       Message msg)
{
    ++counts_.write;
    runPath(ctx, t, KernelPath::SyscallEntry);
    runPath(ctx, t, KernelPath::TcpTx);
    chargeCopy(ctx, t, msg.bytes);
    sock.txBytes += msg.bytes;
    if (network_)
        network_->send(sock, std::move(msg), sliceOffset(ctx));
}

SysResult
Kernel::sysEpollWait(StepCtx &ctx, Thread &t, Epoll &ep,
                     std::vector<Socket *> &ready)
{
    ++counts_.epollWait;
    runPath(ctx, t, KernelPath::SyscallEntry);
    if (ep.anyReady()) {
        runPath(ctx, t, KernelPath::EpollWait);
        ep.readySockets(ready);
        return SysResult::Ok;
    }
    ep.addWaiter(&t);
    return SysResult::WouldBlock;
}

SysResult
Kernel::sysPread(StepCtx &ctx, Thread &t, std::uint32_t fileId,
                 std::uint64_t offset, std::uint64_t bytes,
                 std::uint64_t &diskBytesOut)
{
    diskBytesOut = 0;
    ++counts_.pread;
    runPath(ctx, t, KernelPath::SyscallEntry);
    runPath(ctx, t, KernelPath::VfsRead);
    const std::uint64_t pages =
        std::max<std::uint64_t>(1, (bytes + kPageBytes - 1) / kPageBytes);
    runPath(ctx, t, KernelPath::PageCacheLookup, pages);

    const std::uint64_t missing =
        machine_.pageCache().access(fileId, offset, bytes);
    if (missing == 0) {
        chargeCopy(ctx, t, bytes);
        return SysResult::Ok;
    }

    // Submit the disk read for the missing pages when the syscall
    // logically executes; the completion wakes the thread.
    runPath(ctx, t, KernelPath::BlockIo);
    const std::uint64_t diskBytes = missing * kPageBytes;
    diskBytesOut = diskBytes;
    Thread *thread = &t;
    Machine *m = &machine_;
    machine_.events().scheduleAfter(sliceOffset(ctx),
                                    [m, thread, diskBytes] {
        m->disk().submit(diskBytes, false, [m, thread] {
            m->scheduler().wake(thread);
        });
    });
    return SysResult::WouldBlock;
}

void
Kernel::sysPreadFinish(StepCtx &ctx, Thread &t, std::uint64_t bytes)
{
    runPath(ctx, t, KernelPath::BlockIo);
    chargeCopy(ctx, t, bytes);
}

void
Kernel::sysPwrite(StepCtx &ctx, Thread &t, std::uint32_t fileId,
                  std::uint64_t offset, std::uint64_t bytes)
{
    ++counts_.pwrite;
    runPath(ctx, t, KernelPath::SyscallEntry);
    runPath(ctx, t, KernelPath::VfsWrite);
    chargeCopy(ctx, t, bytes);
    machine_.pageCache().access(fileId, offset, bytes);
    // Write-back happens asynchronously; charge the device, not the
    // thread.
    machine_.events().scheduleAfter(
        sliceOffset(ctx) + sim::milliseconds(30),
        [m = &machine_, bytes] {
            m->disk().submit(bytes, true, nullptr);
        });
}

SysResult
Kernel::sysFutexWait(StepCtx &ctx, Thread &t, WaitQueue &q)
{
    ++counts_.futex;
    runPath(ctx, t, KernelPath::Futex);
    q.addWaiter(&t);
    return SysResult::WouldBlock;
}

void
Kernel::sysFutexWake(StepCtx &ctx, Thread &t, WaitQueue &q, unsigned n)
{
    ++counts_.futex;
    runPath(ctx, t, KernelPath::Futex);
    if (q.hasWaiters())
        runPath(ctx, t, KernelPath::EpollWake);
    q.wake(n);
}

SysResult
Kernel::sysNanosleep(StepCtx &ctx, Thread &t, sim::Time duration)
{
    ++counts_.nanosleep;
    runPath(ctx, t, KernelPath::SyscallEntry);
    Thread *thread = &t;
    Machine *m = &machine_;
    machine_.events().scheduleAfter(sliceOffset(ctx) + duration,
                                    [m, thread] {
        m->scheduler().wake(thread);
    });
    return SysResult::WouldBlock;
}

void
Kernel::sysClone(StepCtx &ctx, Thread &t)
{
    ++counts_.clone;
    runPath(ctx, t, KernelPath::Clone);
}

} // namespace ditto::os
