// Tests for the `.rvset` declaration parser (engine/set_decl): grid
// and explicit-cell materialisation order, precise error reporting
// (line + key on every failure mode), the named hook registries, and
// file-level behaviours (stem-default names, path-prefixed errors).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/families.hpp"
#include "engine/scenario_set.hpp"
#include "engine/set_decl.hpp"

namespace {

namespace fs = std::filesystem;
using rv::engine::Family;
using rv::engine::SetDecl;
using rv::engine::SetDeclError;
using rv::engine::WorkItem;

/// Fresh scratch directory per test, removed on destruction.
struct Scratch {
  fs::path path;
  Scratch() {
    path = fs::temp_directory_path() / "rv_set_decl_XXXXXX";
    std::string buffer = path.string();
    EXPECT_NE(mkdtemp(buffer.data()), nullptr);
    path = buffer;
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Parses `text` and returns the error, failing the test when it
/// unexpectedly parses.
SetDeclError parse_error(const std::string& text) {
  try {
    (void)rv::engine::parse_set_decl(text);
  } catch (const SetDeclError& error) {
    return error;
  }
  ADD_FAILURE() << "expected SetDeclError for:\n" << text;
  return SetDeclError(0, "", "did not throw");
}

TEST(SetDeclParse, GridAndAddSectionsMaterializeInDeclarationOrder) {
  // Explicit adds come before the grid, in file order — the fixed
  // materialisation order of ScenarioSet.
  const SetDecl decl = rv::engine::parse_set_decl(
      "name = ordered\n"
      "[linear.add]\n"
      "label = first\n"
      "mode = linear-rendezvous\n"
      "target = 1.0\n"
      "[linear.add]\n"
      "label = second\n"
      "mode = zigzag-search\n"
      "target = 2.0\n"
      "[linear]\n"
      "mode = zigzag-search\n"
      "distances = 3.0 4.0\n"
      "radii = 0.1 0.2\n"
      "[coverage]\n"
      "programs = algorithm4 concentric\n"
      "disk_radii = 1 2\n"
      "radii = 0.1 0.2\n");
  const std::vector<WorkItem> items = decl.set.materialize_work();
  ASSERT_EQ(items.size(), 14u);
  EXPECT_EQ(items[0].label, "first");
  EXPECT_EQ(items[1].label, "second");
  // Linear grid: distances ⊃ radii.
  for (std::size_t i = 0; i < 4; ++i) {
    const WorkItem& item = items[2 + i];
    EXPECT_EQ(item.family, rv::engine::Family::kLinear);
    EXPECT_EQ(item.linear.target, i < 2 ? 3.0 : 4.0) << i;
    EXPECT_EQ(item.linear.visibility, i % 2 == 0 ? 0.1 : 0.2) << i;
  }
  // Coverage grid: programs ⊃ disk_radii ⊃ radii.
  for (std::size_t i = 0; i < 8; ++i) {
    const WorkItem& item = items[6 + i];
    EXPECT_EQ(item.family, rv::engine::Family::kCoverage);
    EXPECT_EQ(item.coverage.program,
              i < 4 ? rv::engine::SearchProgram::kAlgorithm4
                    : rv::engine::SearchProgram::kConcentric)
        << i;
    EXPECT_EQ(item.coverage.disk_radius, (i / 2) % 2 == 0 ? 1.0 : 2.0) << i;
    EXPECT_EQ(item.coverage.visibility, i % 2 == 0 ? 0.1 : 0.2) << i;
  }
}

TEST(SetDeclParse, CommentsBlankLinesAndPaddingAreIgnored) {
  const SetDecl decl = rv::engine::parse_set_decl(
      "# leading comment\n"
      "\n"
      "  name   =   padded-name  \n"
      "[search]\t\n"
      "  angles = 2\n"
      "\tdistances = 1.0\n"
      "# trailing comment\n");
  EXPECT_EQ(decl.name, "padded-name");
  ASSERT_EQ(decl.set.materialize_work().size(), 1u);
  EXPECT_EQ(decl.set.materialize_work()[0].search.angles, 2);
}

TEST(SetDeclErrors, NameLineAndKeyOnEveryFailureMode) {
  struct Case {
    const char* what;
    const char* text;
    int line;
    const char* field;
  };
  const Case cases[] = {
      {"bare word", "name = x\njunk\n", 2, ""},
      {"empty key", "= value\n", 1, ""},
      {"empty value", "name =\n", 1, "name"},
      {"duplicate key", "[search]\nangles = 2\nangles = 3\n", 3, "angles"},
      {"unknown top-level key", "color = red\n[search]\ndistances = 1\n", 1,
       "color"},
      {"unknown section", "[warp]\nspeed = 9\n", 1, ""},
      {"unknown section suffix", "[search.grid]\ndistances = 1\n", 1, ""},
      {"duplicate grid section",
       "[search]\ndistances = 1\n[search]\ndistances = 2\n", 3, ""},
      {"bad number", "[search]\ndistances = fast\n", 2, "distances"},
      {"inf rejected", "[search]\ndistances = inf\n", 2, "distances"},
      {"hex rejected", "[search]\ndistances = 0x10\n", 2, "distances"},
      {"trailing junk", "[search]\ndistances = 1.0x\n", 2, "distances"},
      {"bad integer", "[search]\nangles = 2.5\ndistances = 1\n", 2, "angles"},
      {"bad enum", "[search]\nprograms = warp-drive\n", 2, "programs"},
      {"bad algorithm", "[rendezvous]\nalgorithm = algorithm9\n"
                        "speeds = 1\n", 2, "algorithm"},
      {"bad mode", "[linear]\nmode = sideways\ndistances = 1\n", 2, "mode"},
      {"unknown key in section", "[search]\ndistances = 1\nwheels = 4\n", 3,
       "wheels"},
      {"axis-less grid", "[search]\nangles = 4\n", 1, ""},
      {"distances+offsets conflict",
       "[rendezvous]\ndistances = 1\noffsets = 1 0\n", 3, "offsets"},
      {"bad pair", "[rendezvous]\noffsets = 1 2 3\n", 2, "offsets"},
      {"unknown horizon rule",
       "[search]\ndistances = 1\nhorizon_rule = forever\n", 3,
       "horizon_rule"},
      {"robot outside gather.add", "[search]\nrobot = 1 1\ndistances = 1\n",
       2, "robot"},
      {"robot at top level", "robot = 1 1\n[search]\ndistances = 1\n", 1,
       "robot"},
      {"gather grid without sizes", "[gather]\nvisibility = 0.2\n", 1, ""},
      {"gather size below 2", "[gather]\nsizes = 3 1\n", 2, "sizes"},
      {"lone robot", "[gather.add]\nrobot = 1.0 1.0\n", 1, "robot"},
      {"malformed robot", "[gather.add]\nrobot = 1.0\nrobot = 1 1\n", 2,
       "robot"},
      {"bad set name", "name = bad name!\n[search]\ndistances = 1\n", 1,
       "name"},
      {"integer overflow", "[rendezvous]\nchiralities = 99999999999\n", 2,
       "chiralities"},
      {"control byte", "name = x\0y\n", 0, ""},  // text below, see NUL case
  };
  for (const Case& test : cases) {
    if (std::string(test.what) == "control byte") continue;  // handled below
    const SetDeclError error = parse_error(test.text);
    EXPECT_EQ(error.line(), test.line) << test.what << ": " << error.what();
    EXPECT_EQ(error.field(), test.field) << test.what << ": " << error.what();
  }
  // NUL bytes need an explicit length — a C literal would truncate.
  const std::string nul_text = std::string("name = x\0y\n[search]\n", 20);
  const SetDeclError nul_error = parse_error(nul_text);
  EXPECT_EQ(nul_error.line(), 1);
  // No sections at all is a file-level error (line 0).
  const SetDeclError empty_error = parse_error("name = lonely\n");
  EXPECT_EQ(empty_error.line(), 0);
  EXPECT_NE(std::string(empty_error.what()).find("no scenario sections"),
            std::string::npos);
}

TEST(SetDeclErrors, DuplicateKeyErrorNamesTheFirstOccurrence) {
  const SetDeclError error = parse_error(
      "[coverage]\nprograms = concentric\n# gap\nprograms = algorithm4\n");
  EXPECT_EQ(error.line(), 4);
  EXPECT_EQ(error.field(), "programs");
  EXPECT_NE(std::string(error.what()).find("first set on line 2"),
            std::string::npos);
}

TEST(SetDeclErrors, UnknownKeyErrorListsTheValidKeys) {
  const SetDeclError error =
      parse_error("[gather]\nsizes = 2 3\nwarp = 9\n");
  const std::string what = error.what();
  EXPECT_NE(what.find("[gather]"), std::string::npos) << what;
  EXPECT_NE(what.find("valid keys:"), std::string::npos) << what;
  EXPECT_NE(what.find("ring_radius"), std::string::npos) << what;
  EXPECT_NE(what.find("sizes"), std::string::npos) << what;
}

TEST(SetDeclErrors, ComponentKeysAreUnknownKeys) {
  // The format selects no component columns: `components_only` and
  // `components = NAME` fail like any other unknown key.
  const struct {
    const char* text;
    int line;
    const char* field;
  } cases[] = {
      {"components_only = true\n[search]\ndistances = 1\n", 1,
       "components_only"},
      {"[search]\ndistances = 1\ncomponents = guaranteed-rounds\n", 3,
       "components"},
      {"[linear]\ndistances = 2\n\ncomponents = zigzag-reach\n", 4,
       "components"},
  };
  for (const auto& test : cases) {
    const SetDeclError error = parse_error(test.text);
    EXPECT_EQ(error.line(), test.line) << test.text;
    EXPECT_EQ(error.field(), test.field) << test.text;
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("line " + std::to_string(test.line) + ": key '" +
                             test.field + "': unknown key",
                         0),
              0u)
        << what;
  }
}

TEST(SetDeclRegistries, UnknownHorizonRuleErrorListsTheFamilysRules) {
  const auto valid = [](const std::string& text) {
    const std::string what = parse_error(text).what();
    const std::size_t at = what.find("(valid: ");
    return at == std::string::npos ? what : what.substr(at);
  };
  EXPECT_EQ(valid("[search]\ndistances = 1\nhorizon_rule = x\n"),
            "(valid: guaranteed-rounds+1)");
  EXPECT_EQ(valid("[linear]\ndistances = 1\nhorizon_rule = x\n"),
            "(valid: zigzag-reach+1)");
  EXPECT_EQ(valid("[coverage]\ndisk_radii = 1\nhorizon_rule = x\n"),
            "(valid: 2x-guaranteed-rounds)");
  // A family with no horizon rule does not take the key at all.
  for (const char* text : {"[rendezvous]\nspeeds = 1\nhorizon_rule = x\n",
                           "[gather]\nsizes = 2\nhorizon_rule = x\n"}) {
    EXPECT_NE(std::string(parse_error(text).what()).find("valid keys:"),
              std::string::npos)
        << text;
  }
}

TEST(SetDeclFile, NameDefaultsToTheFileStem) {
  Scratch scratch;
  const fs::path file = scratch.path / "my-sweep.rvset";
  std::ofstream(file) << "[search]\ndistances = 1.0\n";
  const SetDecl decl = rv::engine::parse_set_decl_file(file);
  EXPECT_EQ(decl.name, "my-sweep");
  EXPECT_TRUE(decl.description.empty());
}

TEST(SetDeclFile, ErrorsArePrefixedWithThePathAndKeepTheLine) {
  Scratch scratch;
  const fs::path file = scratch.path / "broken.rvset";
  std::ofstream(file) << "[search]\ndistances = nope\n";
  try {
    (void)rv::engine::parse_set_decl_file(file);
    FAIL() << "expected SetDeclError";
  } catch (const SetDeclError& error) {
    EXPECT_EQ(error.line(), 2);
    EXPECT_EQ(error.field(), "distances");
    const std::string what = error.what();
    EXPECT_NE(what.find(file.string()), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  EXPECT_THROW((void)rv::engine::parse_set_decl_file(scratch.path / "no.rvset"),
               SetDeclError);
}

}  // namespace
