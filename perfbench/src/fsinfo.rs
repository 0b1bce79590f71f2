//! Which filesystem holds a directory, and whether it lives in memory.

use std::path::Path;

/// Filesystem name of `dir` and whether it is memory-backed.
#[cfg(target_os = "linux")]
pub fn describe(dir: &Path) -> (String, bool) {
    use std::ffi::CString;
    use std::os::raw::{c_char, c_int, c_long};
    use std::os::unix::ffi::OsStrExt;

    extern "C" {
        fn statfs(path: *const c_char, buf: *mut c_long) -> c_int;
    }

    let Ok(path) = CString::new(dir.as_os_str().as_bytes()) else {
        return ("unknown".into(), false);
    };
    // `struct statfs` is 120 bytes on 64-bit Linux and starts with the
    // `f_type` word; the buffer is twice that.
    let mut buf: [c_long; 32] = [0; 32];
    // SAFETY: `path` is NUL-terminated and outlives the call; `buf` is
    // writable, word-aligned and larger than `struct statfs`, the only
    // memory `statfs` writes.
    let rc = unsafe { statfs(path.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return ("unknown".into(), false);
    }
    let magic = buf[0] as u64 & 0xFFFF_FFFF;
    let (name, in_memory) = match magic {
        0x0102_1994 => ("tmpfs", true),
        0x8584_58f6 => ("ramfs", true),
        0xEF53 => ("ext4", false),
        0x794c_7630 => ("overlayfs", false),
        0x5846_5342 => ("xfs", false),
        0x9123_683e => ("btrfs", false),
        _ => ("other", false),
    };
    (format!("{name} (f_type 0x{magic:x})"), in_memory)
}

/// Filesystem name of `dir` and whether it is memory-backed.
#[cfg(not(target_os = "linux"))]
pub fn describe(_dir: &Path) -> (String, bool) {
    ("unknown".into(), false)
}
