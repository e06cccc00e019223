#include "serve/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "netflow/frame.h"
#include "util/error.h"

namespace dm::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kGenPrefix = "gen-";
constexpr const char* kStagingSuffix = ".tmp";

void throw_io(const std::string& what, const fs::path& path) {
  throw Error(what + ": " + path.string());
}

/// fsync one file by path (content durability before rename).
void fsync_path(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_io("checkpoint: cannot open for fsync", path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_io("checkpoint: fsync failed", path);
}

/// fsync a directory (rename durability).
void fsync_dir(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_io("checkpoint: cannot open dir for fsync", path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_io("checkpoint: dir fsync failed", path);
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw_io("checkpoint: cannot create", path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) throw_io("checkpoint: write failed", path);
}

[[nodiscard]] std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_io("checkpoint: cannot read", path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

/// Parses "gen-<number>" (committed) or returns nullopt.
[[nodiscard]] std::optional<std::int64_t> parse_gen(const std::string& name) {
  const std::string_view prefix = kGenPrefix;
  if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix) {
    return std::nullopt;
  }
  std::int64_t gen = 0;
  const char* begin = name.data() + prefix.size();
  const char* end = name.data() + name.size();
  const auto [ptr, ec] = std::from_chars(begin, end, gen);
  if (ec != std::errc{} || ptr != end || gen < 0) return std::nullopt;
  return gen;
}

/// MANIFEST text: a header, one line per file, and a trailing CRC of every
/// preceding byte — so manifest damage is as detectable as file damage.
[[nodiscard]] std::string render_manifest(std::int64_t gen,
                                          const std::vector<ShardFile>& files) {
  std::ostringstream body;
  body << "DMMF 1\ngeneration " << gen << "\nfiles " << files.size() << "\n";
  for (const ShardFile& f : files) {
    const std::uint32_t crc = netflow::crc32({f.bytes.data(), f.bytes.size()});
    body << "file " << f.name << " " << f.bytes.size() << " " << crc << "\n";
  }
  std::string text = body.str();
  const std::uint32_t self =
      netflow::crc32({reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()});
  text += "crc " + std::to_string(self) + "\n";
  return text;
}

struct ManifestEntry {
  std::string name;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// Parses + self-CRC-checks a MANIFEST; returns entries or an error string.
[[nodiscard]] std::optional<std::vector<ManifestEntry>> parse_manifest(
    const std::vector<std::uint8_t>& bytes, std::int64_t expect_gen,
    std::string& error) {
  const std::string text(bytes.begin(), bytes.end());
  const std::size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string::npos || text.empty() || text.back() != '\n') {
    error = "no trailing crc line";
    return std::nullopt;
  }
  const std::uint32_t actual = netflow::crc32(
      {reinterpret_cast<const std::uint8_t*>(text.data()), crc_line});
  std::istringstream tail(text.substr(crc_line));
  std::string word;
  std::uint32_t expected = 0;
  if (!(tail >> word >> expected) || word != "crc") {
    error = "malformed crc line";
    return std::nullopt;
  }
  if (expected != actual) {
    error = "manifest crc mismatch: expected " + std::to_string(expected) +
            ", actual " + std::to_string(actual);
    return std::nullopt;
  }
  std::istringstream in(text.substr(0, crc_line));
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "DMMF" || version != 1) {
    error = "bad manifest header";
    return std::nullopt;
  }
  std::int64_t gen = -1;
  std::size_t count = 0;
  if (!(in >> word >> gen) || word != "generation" || gen != expect_gen) {
    error = "manifest generation mismatch";
    return std::nullopt;
  }
  if (!(in >> word >> count) || word != "files") {
    error = "bad files count";
    return std::nullopt;
  }
  std::vector<ManifestEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ManifestEntry e;
    if (!(in >> word >> e.name >> e.size >> e.crc) || word != "file") {
      error = "truncated file list";
      return std::nullopt;
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

void poll(fault::KillSwitch* kill, RotationStep step) {
  if (kill != nullptr) kill->poll(static_cast<std::uint64_t>(step));
}

}  // namespace

const char* rotation_step_name(RotationStep step) noexcept {
  switch (step) {
    case RotationStep::kShardWrite: return "shard-write";
    case RotationStep::kShardFsync: return "shard-fsync";
    case RotationStep::kShardRename: return "shard-rename";
    case RotationStep::kManifestWrite: return "manifest-write";
    case RotationStep::kManifestFsync: return "manifest-fsync";
    case RotationStep::kManifestRename: return "manifest-rename";
    case RotationStep::kCommit: return "commit";
    case RotationStep::kDirFsync: return "dir-fsync";
    case RotationStep::kGcRemove: return "gc-remove";
  }
  return "unknown";
}

const char* damage_kind_name(DamageKind kind) noexcept {
  switch (kind) {
    case DamageKind::kTornStaging: return "torn-staging";
    case DamageKind::kMissingManifest: return "missing-manifest";
    case DamageKind::kBadManifest: return "bad-manifest";
    case DamageKind::kMissingFile: return "missing-file";
    case DamageKind::kSizeMismatch: return "size-mismatch";
    case DamageKind::kCrcMismatch: return "crc-mismatch";
    case DamageKind::kUndecodable: return "undecodable";
  }
  return "unknown";
}

CheckpointRotator::CheckpointRotator(std::string root,
                                     std::size_t keep_generations)
    : root_(std::move(root)), keep_(std::max<std::size_t>(1, keep_generations)) {
  fs::create_directories(root_);
}

std::string CheckpointRotator::gen_dir(std::int64_t gen) const {
  return (fs::path(root_) / (kGenPrefix + std::to_string(gen))).string();
}

std::vector<std::int64_t> CheckpointRotator::generations() const {
  std::vector<std::int64_t> gens;
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (!entry.is_directory()) continue;
    if (const auto gen = parse_gen(entry.path().filename().string())) {
      gens.push_back(*gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::int64_t CheckpointRotator::rotate(std::vector<ShardFile> files,
                                       fault::KillSwitch* kill) {
  // dmlint: total-order(file names are unique within a generation)
  std::sort(files.begin(), files.end(),
            [](const ShardFile& a, const ShardFile& b) {
              return a.name < b.name;
            });
  const std::vector<std::int64_t> gens = generations();
  const std::int64_t gen = gens.empty() ? 0 : gens.back() + 1;

  const fs::path staging = fs::path(gen_dir(gen) + kStagingSuffix);
  fs::remove_all(staging);  // a leftover from an interrupted earlier attempt
  fs::create_directories(staging);

  // dmlint: durable-commit
  for (const ShardFile& f : files) {
    const fs::path part = staging / (f.name + ".part");
    write_file(part, f.bytes);
    poll(kill, RotationStep::kShardWrite);
    fsync_path(part);
    poll(kill, RotationStep::kShardFsync);
    fs::rename(part, staging / f.name);
    poll(kill, RotationStep::kShardRename);
  }

  const std::string manifest = render_manifest(gen, files);
  const fs::path manifest_part = staging / (std::string(kManifestName) + ".part");
  write_file(manifest_part,
             std::vector<std::uint8_t>(manifest.begin(), manifest.end()));
  poll(kill, RotationStep::kManifestWrite);
  fsync_path(manifest_part);
  poll(kill, RotationStep::kManifestFsync);
  fs::rename(manifest_part, staging / kManifestName);
  poll(kill, RotationStep::kManifestRename);

  // The staging directory's own entries (shard + manifest renames above)
  // must hit disk before the directory is published: without this sync a
  // crash right after the commit rename can expose a generation whose
  // directory entries are still in flight. Deliberately not a RotationStep
  // kill-point — the crash matrix is keyed by kRotationStepCount and every
  // cell after kManifestRename already exercises the post-sync states.
  fsync_dir(staging);
  fs::rename(staging, gen_dir(gen));
  poll(kill, RotationStep::kCommit);
  fsync_dir(root_);
  poll(kill, RotationStep::kDirFsync);
  // dmlint: durable-commit-end

  // GC beyond keep_, oldest first. `gens` predates the commit, so the
  // retained set is {newest keep_-1 of gens} + the new generation.
  if (gens.size() + 1 > keep_) {
    const std::size_t remove_count = gens.size() + 1 - keep_;
    for (std::size_t i = 0; i < remove_count; ++i) {
      fs::remove_all(gen_dir(gens[i]));
      poll(kill, RotationStep::kGcRemove);
    }
  }
  return gen;
}

LoadedGeneration CheckpointRotator::recover(
    std::vector<DamageEntry>& ledger,
    const std::function<bool(const LoadedGeneration&, std::string&)>&
        decode_ok) {
  // Sweep torn staging dirs first: they are pre-commit by construction.
  std::vector<std::string> torn;
  for (const auto& entry : fs::directory_iterator(root_)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && name.size() > 4 &&
        name.substr(name.size() - 4) == kStagingSuffix) {
      torn.push_back(name);
    }
  }
  std::sort(torn.begin(), torn.end());
  for (const std::string& name : torn) {
    fs::remove_all(fs::path(root_) / name);
    ledger.push_back({-1, name, DamageKind::kTornStaging,
                      "staging dir swept (crash before commit)"});
  }

  std::vector<std::int64_t> gens = generations();
  while (!gens.empty()) {
    const std::int64_t gen = gens.back();
    gens.pop_back();
    const fs::path dir = gen_dir(gen);
    const std::string dir_name = dir.filename().string();

    const auto reject = [&](const std::string& file, DamageKind kind,
                            std::string detail) {
      ledger.push_back({gen, dir_name + "/" + file, kind, std::move(detail)});
      fs::remove_all(dir);
    };

    const fs::path manifest_path = dir / kManifestName;
    if (!fs::exists(manifest_path)) {
      reject(kManifestName, DamageKind::kMissingManifest,
             "committed generation has no MANIFEST");
      continue;
    }
    std::string error;
    const auto entries =
        parse_manifest(read_file(manifest_path), gen, error);
    if (!entries) {
      reject(kManifestName, DamageKind::kBadManifest, error);
      continue;
    }

    LoadedGeneration loaded;
    loaded.generation = gen;
    bool ok = true;
    for (const ManifestEntry& e : *entries) {
      const fs::path file = dir / e.name;
      if (!fs::exists(file)) {
        reject(e.name, DamageKind::kMissingFile, "listed in MANIFEST");
        ok = false;
        break;
      }
      std::vector<std::uint8_t> bytes = read_file(file);
      if (bytes.size() != e.size) {
        reject(e.name, DamageKind::kSizeMismatch,
               "expected " + std::to_string(e.size) + " bytes, found " +
                   std::to_string(bytes.size()));
        ok = false;
        break;
      }
      const std::uint32_t crc = netflow::crc32({bytes.data(), bytes.size()});
      if (crc != e.crc) {
        reject(e.name, DamageKind::kCrcMismatch,
               "expected crc " + std::to_string(e.crc) + ", actual " +
                   std::to_string(crc));
        ok = false;
        break;
      }
      loaded.files.push_back({e.name, std::move(bytes)});
    }
    if (!ok) continue;
    if (decode_ok != nullptr) {
      std::string why;
      if (!decode_ok(loaded, why)) {
        reject("*", DamageKind::kUndecodable,
               why.empty() ? "semantic decode failed" : why);
        continue;
      }
    }
    return loaded;
  }
  return {};
}

}  // namespace dm::serve
