//! What the transport needs from the OS and cannot get from `std`: an
//! anonymous shared-memory file (`memfd_create`), a shared mapping of
//! it (`mmap`/`munmap`), and the passing of its descriptor to the peer
//! over the connection's socket (`sendmsg`/`recvmsg` with an
//! `SCM_RIGHTS` control message) for the bulk lane; and the wait for a
//! socket to become readable or writable (`poll`) for the receive that
//! runs on the caller's thread. The build has no registry access for
//! `libc`, so these are hand-declared here, in the one module of the
//! crate allowed to say `extern "C"` (`xtask lint` enforces it, and that
//! every `unsafe` below carries its `SAFETY:` argument). Layouts and
//! constants are the 64-bit Linux ones.

use std::ffi::{c_char, c_void};
use std::fs::File;
use std::io::{self, IoSlice, IoSliceMut, Read};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: i32,
}

/// `struct iovec`, which std guarantees `IoSlice` and `IoSliceMut` to
/// be ABI compatible with; a message header points at an array of them.
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// `struct pollfd`: one descriptor to wait on, the events asked for and
/// the events that happened.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// Something happened on the descriptor: an asked-for event, or a
    /// hang-up or error, which `poll` reports unasked.
    pub(crate) fn woke(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn memfd_create(name: *const c_char, flags: u32) -> i32;
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Data (or an EOF) can be read.
pub(crate) const POLLIN: i16 = 0x1;
/// Data can be written without blocking.
pub(crate) const POLLOUT: i16 = 0x4;

const MFD_CLOEXEC: u32 = 1;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;
const SOL_SOCKET: i32 = 1;
const SCM_RIGHTS: i32 = 1;
const MSG_NOSIGNAL: i32 = 0x4000;
const MSG_CMSG_CLOEXEC: i32 = 0x4000_0000;
/// `struct cmsghdr` ahead of its data: `size_t len; int level; int type`.
const CMSG_HDR: usize = 16;
/// `CMSG_LEN(sizeof(int))`: one descriptor's control message.
const CMSG_LEN_ONE_FD: usize = CMSG_HDR + 4;

/// A fresh anonymous shared-memory file of `len` bytes. It has no name
/// in any file system: it lives while a descriptor or a mapping of it
/// does, and a process's death closes both.
pub(crate) fn shared_file(len: usize) -> io::Result<OwnedFd> {
    // SAFETY: the name is a NUL-terminated static string and the flags
    // are a defined constant; the call touches no caller memory beyond
    // reading the name.
    let fd = unsafe { memfd_create(c"summit-bulk-lane".as_ptr(), MFD_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned open by memfd_create and nothing
    // else owns it.
    let fd = unsafe { OwnedFd::from_raw_fd(fd) };
    let file = File::from(fd);
    file.set_len(len as u64)?;
    Ok(file.into())
}

/// A read-write shared mapping of the whole of `fd`; its length with
/// it. The mapping outlives the descriptor, which the caller may close.
pub(crate) fn map_shared(fd: &OwnedFd) -> io::Result<(*mut u8, usize)> {
    let len = File::from(fd.try_clone()?).metadata()?.len() as usize;
    if len == 0 {
        return Err(io::ErrorKind::InvalidData.into());
    }
    // SAFETY: a fresh mapping at an address of the kernel's choosing
    // over an open descriptor; it aliases no Rust object.
    let ptr = unsafe {
        mmap(std::ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_SHARED, fd.as_raw_fd(), 0)
    };
    if ptr as isize == -1 {
        return Err(io::Error::last_os_error());
    }
    Ok((ptr.cast(), len))
}

/// Undo [`map_shared`].
///
/// # Safety
/// `(ptr, len)` came from one [`map_shared`] call, is unmapped once,
/// and no reference into it outlives this call.
pub(crate) unsafe fn unmap(ptr: *mut u8, len: usize) {
    // SAFETY: the caller's contract above.
    unsafe { munmap(ptr.cast(), len) };
}

/// One `sendmsg` of `bufs`, with `fd` attached as `SCM_RIGHTS`. Returns
/// the bytes written, which may be short of the whole.
pub(crate) fn send_with_fd(
    stream: &UnixStream,
    bufs: &[IoSlice<'_>],
    fd: RawFd,
) -> io::Result<usize> {
    // Eight-byte aligned room for one descriptor's control message.
    let mut control = [0u64; 3];
    let raw = control.as_mut_ptr().cast::<u8>();
    // SAFETY: `control` is 24 writable, 8-aligned bytes: the header (len
    // at 0, level at 8, type at 12) and the descriptor at 16.
    unsafe {
        raw.cast::<usize>().write(CMSG_LEN_ONE_FD);
        raw.add(8).cast::<i32>().write(SOL_SOCKET);
        raw.add(12).cast::<i32>().write(SCM_RIGHTS);
        raw.add(CMSG_HDR).cast::<i32>().write(fd);
    }
    let msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: bufs.as_ptr() as *mut IoVec,
        iovlen: bufs.len(),
        control: raw.cast(),
        controllen: std::mem::size_of_val(&control),
        flags: 0,
    };
    // SAFETY: `msg` points at `bufs` (IoSlice is ABI compatible with
    // iovec, and the kernel only reads them) and at `control`, both
    // live for the call.
    let n = unsafe { sendmsg(stream.as_raw_fd(), &msg, MSG_NOSIGNAL) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

/// Wait until an event asked for in `fds` happens, or `timeout` passes
/// (`None`: no limit); each entry's [`PollFd::woke`] says which. The
/// wait is rounded up to whole milliseconds, so a short one cannot spin.
/// A signal cuts it short like a timeout does: callers re-check their
/// own deadline.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = match timeout {
        None => -1,
        Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
    };
    // SAFETY: `fds` is a live, writable array of `fds.len()` `pollfd`s;
    // the kernel writes only their `revents`.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// The read half of a connection's socket: a plain `Read`, plus
/// [`FdReader::read_keeping_fd`] for the bytes a peer may have attached
/// a descriptor to, which a plain `read` would have the kernel close.
#[derive(Debug)]
pub(crate) struct FdReader {
    stream: UnixStream,
    /// The newest descriptor received and not yet taken.
    fd: Option<OwnedFd>,
}

impl Read for FdReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        self.stream.read_vectored(bufs)
    }
}

impl FdReader {
    pub(crate) fn new(stream: UnixStream) -> Self {
        FdReader { stream, fd: None }
    }

    /// The descriptor that arrived with the bytes read so far, if any.
    pub(crate) fn take_fd(&mut self) -> Option<OwnedFd> {
        self.fd.take()
    }

    /// The socket's descriptor, to [`wait`] on.
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// One `read_vectored` through `recvmsg`, keeping a descriptor that
    /// rides these bytes for [`FdReader::take_fd`].
    pub(crate) fn read_keeping_fd(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        // Room for a few descriptors' control messages; the lane sends
        // one, and anything more is closed below.
        let mut control = [0u64; 8];
        let mut msg = MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: bufs.as_mut_ptr().cast(),
            iovlen: bufs.len(),
            control: control.as_mut_ptr().cast(),
            controllen: std::mem::size_of_val(&control),
            flags: 0,
        };
        // SAFETY: `msg` points at `bufs` (IoSliceMut is ABI compatible
        // with iovec; each is writable for its length) and at `control`,
        // all live for the call; the kernel writes only inside them and
        // updates the lengths in `msg`.
        let n = unsafe { recvmsg(self.stream.as_raw_fd(), &mut msg, MSG_CMSG_CLOEXEC) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let raw = control.as_ptr().cast::<u8>();
        let end = msg.controllen.min(std::mem::size_of_val(&control));
        let mut at = 0;
        while at + CMSG_HDR <= end {
            // SAFETY: `at + 16 <= end <= 64`, inside `control`, and `at`
            // is a multiple of 8 (each step below rounds up to 8).
            let (len, level, kind) = unsafe {
                (
                    raw.add(at).cast::<usize>().read(),
                    raw.add(at + 8).cast::<i32>().read(),
                    raw.add(at + 12).cast::<i32>().read(),
                )
            };
            if len < CMSG_HDR || at + len > end {
                break;
            }
            if level == SOL_SOCKET && kind == SCM_RIGHTS {
                for i in 0..(len - CMSG_HDR) / 4 {
                    // SAFETY: inside this control message's data, which
                    // the kernel filled with open descriptors that are
                    // now this process's to own.
                    let fd = unsafe {
                        OwnedFd::from_raw_fd(raw.add(at + CMSG_HDR + 4 * i).cast::<i32>().read())
                    };
                    self.fd = Some(fd);
                }
            }
            at += (len + 7) & !7;
        }
        Ok(n as usize)
    }
}
