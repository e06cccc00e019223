// Rotation-coverage tripwire: every checkpointed struct the serve fleet
// serializes into a generation (named in a `dmlint: covers(var, Struct)`
// region of the fleet's serialization code) must be named by the rotation
// test suite. dmlint already proves covers regions touch every field; this
// test closes the remaining gap — a new checkpointed struct whose bytes
// never pass through the crash matrix's byte-identity oracle.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace dm::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string repo_path(const std::string& rel) {
  return std::string(DM_SOURCE_ROOT) + "/" + rel;
}

/// Struct names from `dmlint: covers(var, Struct)` directives in `text`.
std::set<std::string> covers_structs(const std::string& text) {
  std::set<std::string> names;
  const std::string needle = "dmlint: covers(";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    const std::size_t open = pos + needle.size();
    const std::size_t comma = text.find(',', open);
    const std::size_t close = text.find(')', open);
    if (comma == std::string::npos || close == std::string::npos ||
        comma > close) {
      continue;
    }
    std::string name = text.substr(comma + 1, close - comma - 1);
    name.erase(0, name.find_first_not_of(" \t"));
    name.erase(name.find_last_not_of(" \t") + 1);
    if (!name.empty()) names.insert(name);
  }
  return names;
}

/// Marked `// dmlint: checkpointed` struct names declared in `text`: for
/// each marker, the nearest preceding `struct <Name>`.
std::set<std::string> checkpointed_structs(const std::string& text) {
  std::set<std::string> names;
  for (std::size_t pos = text.find("dmlint: checkpointed");
       pos != std::string::npos;
       pos = text.find("dmlint: checkpointed", pos + 1)) {
    const std::size_t decl = text.rfind("struct ", pos);
    if (decl == std::string::npos) continue;
    std::size_t start = decl + 7;
    std::size_t end = start;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) != 0 ||
            text[end] == '_')) {
      ++end;
    }
    if (end > start) names.insert(text.substr(start, end - start));
  }
  return names;
}

bool contains_word(const std::string& text, const std::string& word) {
  const auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  for (std::size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !is_ident(text[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= text.size() || !is_ident(text[after]);
    if (left_ok && right_ok) return true;
  }
  return false;
}

TEST(RotationCoverage, EveryServePersistedStructIsNamedByRotationTests) {
  // The serve fleet's serialization TUs: everything a generation contains
  // is written by one of these files.
  const std::vector<std::string> serialization_sources = {
      "src/serve/supervisor.cpp",
      "src/detect/stream.cpp",
  };
  // Struct declarations the fleet marks as checkpointed.
  const std::vector<std::string> declaration_sources = {
      "src/serve/supervisor.h",
      "src/detect/stream.h",
      "src/detect/incident.h",
  };
  // The tests that drive the crash matrix / checkpoint byte-identity oracle.
  const std::vector<std::string> rotation_tests = {
      "tests/serve/rotation_crash_test.cpp",
      "tests/serve/supervisor_test.cpp",
      "tests/detect/stream_checkpoint_test.cpp",
      "tests/detect/stream_restore_error_test.cpp",
  };

  std::set<std::string> persisted;
  for (const std::string& rel : serialization_sources) {
    for (const std::string& name : covers_structs(read_file(repo_path(rel)))) {
      persisted.insert(name);
    }
  }
  for (const std::string& rel : declaration_sources) {
    for (const std::string& name :
         checkpointed_structs(read_file(repo_path(rel)))) {
      persisted.insert(name);
    }
  }
  ASSERT_GE(persisted.size(), 8u)
      << "the serve fleet's covers regions went missing";
  EXPECT_TRUE(persisted.count("TenantBook") == 1 &&
              persisted.count("OpenWindow") == 1)
      << "expected anchor structs disappeared — did serialization move?";

  std::string test_text;
  for (const std::string& rel : rotation_tests) {
    test_text += read_file(repo_path(rel));
  }
  for (const std::string& name : persisted) {
    EXPECT_TRUE(contains_word(test_text, name))
        << "checkpointed struct " << name
        << " is serialized into serve generations but never named by the "
           "rotation test suite; extend the crash matrix (or its coverage "
           "manifest) to exercise it";
  }
}

}  // namespace
}  // namespace dm::lint
