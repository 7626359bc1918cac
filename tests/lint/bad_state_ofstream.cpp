// bflint fixture: all durable-state I/O in src/core and src/flow goes
// through the bf::io VFS seam (src/io/vfs.h). A bare std::ofstream would
// write state bytes no recovery path can validate and no fault injector
// can reach.
// bflint-expect: state-file-io
#include <fstream>
#include <string>

namespace bf::flow {

inline void rogueStateWriter(const std::string& path,
                             const std::string& state) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(state.data(), static_cast<std::streamsize>(state.size()));
}

}  // namespace bf::flow
