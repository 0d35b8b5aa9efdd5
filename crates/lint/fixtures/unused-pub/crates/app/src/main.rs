//! A user of the library. Its comments, strings and re-exports are no
//! use: only_tested is named here in vain.
#![forbid(unsafe_code)]

pub use lib::only_tested;

fn main() {
    let name = "only_tested";

    println!("{name} {}", lib::used_by_app());
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(lib::only_tested(), 2);
    }
}
