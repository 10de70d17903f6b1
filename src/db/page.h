// Page identifiers and table regions in the simulated DBMS.
#ifndef KAIROS_DB_PAGE_H_
#define KAIROS_DB_PAGE_H_

#include <cstdint>
#include <string>

namespace kairos::db {

/// Identifier of a fixed-size page in the instance-global page space.
using PageId = uint64_t;

/// Default InnoDB-style page size.
inline constexpr uint64_t kDefaultPageBytes = 16 * 1024;

/// A contiguous run of pages backing one table (plus reserved growth room).
struct Region {
  std::string name;        ///< Table name.
  PageId start = 0;        ///< First page id.
  uint64_t pages = 0;      ///< Pages currently in use.
  uint64_t reserved = 0;   ///< Pages reserved for growth (>= pages).
};

}  // namespace kairos::db

#endif  // KAIROS_DB_PAGE_H_
