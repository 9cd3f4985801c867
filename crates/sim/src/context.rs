//! Stackful contexts: what a simulated thread is made of, and the switch
//! between two of them. The only file under `crates/` that contains
//! `unsafe` (`dex-check lint`, rule `unsafe-confined`); everything it
//! exports is safe to call, and misuse panics.
//!
//! A [`Context`] is a saved stack pointer plus the stack it points into:
//! 512 KiB from `mmap` above one `PROT_NONE` guard page, so an overflow
//! kills the process instead of scribbling on a neighbour, `munmap`'d on
//! drop. Each OS thread also has a *root* context standing for the stack
//! the OS gave it. [`switch_to`] suspends the running context and resumes
//! another; which one is running is this module's own knowledge (one
//! thread-local), not an argument a caller could get wrong. A context's
//! closure returns the context to resume after it: the last switch off a
//! stack never returns, so it is made here, once the closure has dropped
//! all it owned. Contexts are handed around as `Rc<Context>`, so the
//! compiler keeps each one on the OS thread that made it — where its frames,
//! which may hold values that are not `Send` and references into that
//! thread's thread-locals, can be resumed.
//!
//! # The ABI facts the assembly relies on (x86_64 System V, Linux)
//!
//! * `switch(save, to)` is an ordinary `extern "C"` call: `save` arrives in
//!   `rdi`, `to` in `rsi`, and the compiler already treats every other
//!   caller-saved register (`rax rcx rdx r8–r11`, vector registers, flags)
//!   as clobbered by it.
//! * The callee-saved registers are `rbx rbp r12–r15` and `rsp`: six pushes
//!   on top of the return address `call` pushed are a whole suspended
//!   context, and its `rsp` goes out through `save`. Loading the target's
//!   `rsp`, six pops and `ret` undo exactly that and return from the
//!   target's own earlier call of `switch`.
//! * The `mxcsr` and x87 control words are callee-saved too but are not
//!   switched: nothing here changes them, and every context of an OS thread
//!   shares that thread's.
//! * A new stack is laid out as if suspended at the first instruction of
//!   `enter`: six zero register slots (`rbp` = 0 ends frame-pointer walks),
//!   `enter`'s address for `ret` to take, then a zero where `enter`'s own
//!   return address would be, which is where the unwinder and the backtrace
//!   printer stop. `ret` leaves `rsp` ≡ 8 (mod 16), what a function expects
//!   on entry, so `movaps` spills are aligned.
//! * No shadow stack (CET): Linux enforces one only for binaries marked for
//!   it, which rustc's are not.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "crates/sim/src/context.rs is x86_64 Linux only: to port it, add this target's `switch` \
     (save the callee-saved registers and stack pointer, load the other context's, return) and \
     the matching initial frame in `Context::new`"
);

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// What a simulated thread's OS thread used to get.
const STACK_SIZE: usize = 512 * 1024;
const GUARD_SIZE: usize = 4096;

// std links the C library these come from; values from the Linux headers.
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK`.
const MAP_FLAGS: i32 = 0x02 | 0x20 | 0x2_0000;

/// A context's body: runs once, on the context's own stack, and returns the
/// context to resume when it is done. A panic that escapes it, or a context
/// returned that cannot be resumed, aborts the process.
pub(crate) type Entry = Box<dyn FnOnce() -> Rc<Context>>;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Status {
    /// Resumable: not started yet, or inside [`switch_to`].
    Suspended,
    Running,
    Finished,
}

/// A stack and the place execution stopped on it. See the module docs.
pub(crate) struct Context {
    status: Cell<Status>,
    /// The saved stack pointer while `Suspended`.
    rsp: Cell<usize>,
    /// The body, until the context starts.
    entry: Cell<Option<Entry>>,
    /// Lowest address of the mapping (the guard page); null for a root.
    stack: *mut u8,
}

/// What one OS thread knows about its contexts.
struct PerThread {
    /// The context running on this OS thread; its root until a switch.
    current: RefCell<Rc<Context>>,
    /// Whoever switched to `current`, kept until the switch is over: the
    /// last handle to a context unmaps its stack when dropped, which must
    /// not happen while the thread still stands on it.
    previous: Cell<Option<Rc<Context>>>,
}

thread_local! {
    static THREAD: PerThread = {
        let root = Context {
            status: Cell::new(Status::Running),
            rsp: Cell::new(0),
            entry: Cell::new(None),
            stack: std::ptr::null_mut(),
        };
        PerThread { current: RefCell::new(Rc::new(root)), previous: Cell::new(None) }
    };
}

impl Context {
    /// Builds a context that runs `entry` when first resumed. Panics if the
    /// kernel refuses the mapping.
    pub(crate) fn new(entry: Entry) -> Rc<Context> {
        let len = GUARD_SIZE + STACK_SIZE;
        // SAFETY: a fresh anonymous mapping wherever the kernel likes
        // aliases nothing; the result is checked below.
        let stack = unsafe { mmap(std::ptr::null_mut(), len, PROT_NONE, MAP_FLAGS, -1, 0) };
        // SAFETY: skipped when `mmap` returned MAP_FAILED, `(void *)-1`;
        // else the range is the upper part of the mapping just made.
        let mapped = stack as usize != usize::MAX
            && unsafe { mprotect(stack.add(GUARD_SIZE), STACK_SIZE, PROT_READ_WRITE) } == 0;
        assert!(
            mapped,
            "failed to map a simulated thread's stack: {}",
            std::io::Error::last_os_error()
        );
        // The initial frame (module docs). Fresh pages read as zero, so
        // only `enter`'s address needs writing.
        let top = stack as usize + len;
        // SAFETY: `top - 16` is inside the writable part and 8-byte aligned
        // (the mapping is page-aligned and `len` a multiple of 16).
        unsafe { ((top - 16) as *mut usize).write(enter as extern "C" fn() -> ! as usize) };
        Rc::new(Context {
            status: Cell::new(Status::Suspended),
            rsp: Cell::new(top - 64),
            entry: Cell::new(Some(entry)),
            stack,
        })
    }

    /// The context running on the calling OS thread.
    pub(crate) fn current() -> Rc<Context> {
        THREAD.with(|t| Rc::clone(&t.current.borrow()))
    }
}

impl Drop for Context {
    fn drop(&mut self) {
        if !self.stack.is_null() {
            // SAFETY: the mapping made in `new`, unmapped once. Nobody
            // stands on it: `THREAD` holds the running context and the one
            // being left. What a suspended context's frames still owned is
            // leaked, not freed.
            unsafe { munmap(self.stack, GUARD_SIZE + STACK_SIZE) };
        }
    }
}

/// Suspends the running context and resumes `target`; returns when some
/// context switches back to this one. Panics, switching nothing, if
/// `target` is running or has finished.
pub(crate) fn switch_to(target: Rc<Context>) {
    transfer(target, Status::Suspended);
}

/// Leaves the running context in `status` and moves the OS thread to
/// `target`. Owns nothing across the switch, so it can be the last thing a
/// finished context does.
fn transfer(target: Rc<Context>, status: Status) {
    THREAD.with(|t| {
        let found = target.status.get();
        assert!(found == Status::Suspended, "resumed a {found:?} context");
        target.status.set(Status::Running);
        let to = target.rsp.get();
        let me = t.current.replace(target);
        me.status.set(status);
        let save = me.rsp.as_ptr();
        t.previous.set(Some(me));
        // SAFETY: `to` is the saved stack pointer of a suspended context
        // (checked above) of this OS thread, the only one an `Rc<Context>`
        // can be on — the frame `new` laid out or one an earlier `switch`
        // pushed — on a stack `current` now keeps mapped. `save` points into `me`, which `previous` keeps alive
        // until the target has landed, and whose cells are this thread's.
        unsafe { switch(save, to) };
        // Resumed, necessarily on the same OS thread: `t` is still ours.
        t.previous.set(None);
    });
}

/// Where a new context starts: `switch`'s `ret` lands here. `extern "C"`,
/// so a panic escaping `entry` aborts instead of unwinding off the stack.
extern "C" fn enter() -> ! {
    let entry = THREAD.with(|t| {
        t.previous.set(None);
        t.current.borrow().entry.take()
    });
    let next = entry.expect("a context starts once")();
    transfer(next, Status::Finished);
    unreachable!("a finished context is never resumed")
}

/// Saves the running context's callee-saved registers and stores its stack
/// pointer through `save`, then loads those at `to` and returns there.
///
/// # Safety
///
/// `to` must be the saved stack pointer of a suspended context of the
/// calling OS thread whose stack stays mapped; `save` must be valid for a
/// write, and what it receives must not be used before the switch is over.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut usize, to: usize) {
    std::arch::naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::panic_message;
    use std::cell::OnceCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The message `switch_to(target)` panics with.
    fn refusal(target: &Rc<Context>) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| switch_to(Rc::clone(target))))
            .expect_err("the switch should have been refused");
        panic_message(&*payload)
    }

    #[test]
    fn two_contexts_ping_pong_a_counter() {
        let counter = Rc::new(Cell::new(0));
        let players: Rc<OnceCell<[Rc<Context>; 2]>> = Rc::new(OnceCell::new());
        let player = |me: usize| {
            let (root, counter, players) = (Context::current(), counter.clone(), players.clone());
            Context::new(Box::new(move || {
                let other = Rc::clone(&players.get().expect("set before the first switch")[1 - me]);
                for _ in 0..500 {
                    // Strict alternation: player 0 finds even counts.
                    assert_eq!(counter.get() % 2, me);
                    counter.set(counter.get() + 1);
                    switch_to(Rc::clone(&other));
                }
                // Player 0 finishes into player 1, which finishes into the test.
                if me == 0 {
                    other
                } else {
                    root
                }
            }))
        };
        assert!(players.set([player(0), player(1)]).is_ok());
        switch_to(Rc::clone(&players.get().expect("just set")[0]));
        assert_eq!(counter.get(), 1000);
        for finished in players.get().expect("just set") {
            assert_eq!(refusal(finished), "resumed a Finished context");
        }
    }

    #[test]
    fn misuse_panics_and_corrupts_nothing() {
        let root = Context::current();
        assert_eq!(refusal(&root), "resumed a Running context");
        // A context that comes back here half-way through, twice.
        let back = Rc::clone(&root);
        let visitor = Context::new(Box::new(move || {
            assert_eq!(refusal(&Context::current()), "resumed a Running context");
            switch_to(Rc::clone(&back));
            switch_to(Rc::clone(&back));
            back
        }));
        switch_to(Rc::clone(&visitor));
        switch_to(Rc::clone(&visitor));
        switch_to(Rc::clone(&visitor));
        assert_eq!(refusal(&visitor), "resumed a Finished context");
    }

    #[test]
    fn a_context_dropped_unresumed_drops_its_closure_and_unmaps_its_stack() {
        let token = Rc::new(());
        // A leak would hit `vm.max_map_count` (65 530) after ≈ 32 000.
        for _ in 0..100_000 {
            let held = Rc::clone(&token);
            drop(Context::new(Box::new(move || {
                unreachable!("never resumed: {held:?}")
            })));
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
