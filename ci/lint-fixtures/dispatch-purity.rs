// Interior mutability and terminal output in a dispatch crate (planted as
// a module of dirca-mac).
use std::cell::RefCell;

pub fn log(x: u32) {
    println!("{x}");
}

pub fn shared() -> RefCell<u32> {
    RefCell::new(0)
}
