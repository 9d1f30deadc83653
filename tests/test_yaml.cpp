#include "io/yaml.h"

#include <gtest/gtest.h>

#include "test_common.h"

namespace alfi::io {
namespace {

TEST(YamlParse, FlatMapping) {
  const Json doc = parse_yaml("a: 1\nb: hello\nc: 2.5\nd: true\n");
  EXPECT_EQ(doc.at("a").as_int(), 1);
  EXPECT_EQ(doc.at("b").as_string(), "hello");
  EXPECT_DOUBLE_EQ(doc.at("c").as_number(), 2.5);
  EXPECT_EQ(doc.at("d").as_bool(), true);
}

TEST(YamlParse, NestedMappings) {
  const Json doc = parse_yaml(
      "run:\n"
      "  dataset_size: 100\n"
      "  nested:\n"
      "    deep: yes\n"
      "other: 1\n");
  EXPECT_EQ(doc.at("run").at("dataset_size").as_int(), 100);
  EXPECT_EQ(doc.at("run").at("nested").at("deep").as_bool(), true);
  EXPECT_EQ(doc.at("other").as_int(), 1);
}

TEST(YamlParse, FlowSequences) {
  const Json doc = parse_yaml("bits: [0, 31]\nnames: [conv2d, linear]\nempty: []\n");
  EXPECT_EQ(doc.at("bits").as_array()[0].as_int(), 0);
  EXPECT_EQ(doc.at("bits").as_array()[1].as_int(), 31);
  EXPECT_EQ(doc.at("names").as_array()[1].as_string(), "linear");
  EXPECT_TRUE(doc.at("empty").as_array().empty());
}

TEST(YamlParse, BlockSequences) {
  const Json doc = parse_yaml(
      "layers:\n"
      "  - conv2d\n"
      "  - conv3d\n"
      "  - linear\n");
  const auto& arr = doc.at("layers").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[2].as_string(), "linear");
}

TEST(YamlParse, BlockSequenceOfMappings) {
  const Json doc = parse_yaml(
      "faults:\n"
      "  - layer: 1\n"
      "    bit: 30\n"
      "  - layer: 2\n"
      "    bit: 22\n");
  const auto& arr = doc.at("faults").as_array();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].at("layer").as_int(), 1);
  EXPECT_EQ(arr[1].at("bit").as_int(), 22);
}

TEST(YamlParse, CommentsAndBlanksIgnored) {
  const Json doc = parse_yaml(
      "# full line comment\n"
      "\n"
      "a: 1  # trailing comment\n"
      "b: \"has # inside\"\n");
  EXPECT_EQ(doc.at("a").as_int(), 1);
  EXPECT_EQ(doc.at("b").as_string(), "has # inside");
}

TEST(YamlParse, QuotedStringsKeepType) {
  const Json doc = parse_yaml("a: \"42\"\nb: '3.5'\nc: \"true\"\n");
  EXPECT_EQ(doc.at("a").as_string(), "42");
  EXPECT_EQ(doc.at("b").as_string(), "3.5");
  EXPECT_EQ(doc.at("c").as_string(), "true");
}

TEST(YamlParse, NullForms) {
  const Json doc = parse_yaml("a: ~\nb: null\nc:\n");
  EXPECT_TRUE(doc.at("a").is_null());
  EXPECT_TRUE(doc.at("b").is_null());
  EXPECT_TRUE(doc.at("c").is_null());
}

TEST(YamlParse, RejectsTabs) {
  EXPECT_THROW(parse_yaml("a:\n\tb: 1\n"), ParseError);
}

TEST(YamlParse, RejectsMissingColon) {
  EXPECT_THROW(parse_yaml("just a line\n"), ParseError);
}

TEST(YamlParse, ScenarioShapedDocument) {
  const Json doc = parse_yaml(
      "fault_injection:\n"
      "  target: neurons\n"
      "  value_type: bitflip\n"
      "  rnd_bit_range: [0, 31]\n"
      "  max_faults_per_image: 2\n"
      "  layer_types: [conv2d, linear]\n"
      "run:\n"
      "  dataset_size: 64\n"
      "  num_runs: 1\n"
      "  rnd_seed: 42\n");
  EXPECT_EQ(doc.at("fault_injection").at("target").as_string(), "neurons");
  EXPECT_EQ(doc.at("fault_injection").at("rnd_bit_range").as_array()[1].as_int(), 31);
  EXPECT_EQ(doc.at("run").at("rnd_seed").as_int(), 42);
}

TEST(YamlParse, RefusesIntegerTextANumberCannotHold) {
  // Integer text is held exactly or refused, never rounded: 2^53 + 1
  // would otherwise load as 2^53 with no error.
  EXPECT_EQ(parse_yaml("n: 9007199254740992\n").at("n").as_int(), 9007199254740992LL);
  EXPECT_EQ(parse_yaml("n: -9007199254740992\n").at("n").as_int(), -9007199254740992LL);
  EXPECT_EQ(parse_yaml("n: +42\n").at("n").as_int(), 42);
  for (const char* text :
       {"n: 9007199254740993\n", "n: -9007199254740993\n", "n: +9007199254740993\n",
        "n: 99999999999999999999\n", "n: [1, 9007199254740993]\n",
        "run:\n  dataset_size: 9007199254740993\n"}) {
    EXPECT_THROW(parse_yaml(text), ParseError) << text;
  }
  // A fraction or an exponent says the text is not an integer; quotes
  // keep it a string.
  EXPECT_DOUBLE_EQ(parse_yaml("n: 9007199254740993.0\n").at("n").as_number(),
                   9007199254740992.0);
  EXPECT_DOUBLE_EQ(parse_yaml("n: 1e20\n").at("n").as_number(), 1e20);
  EXPECT_EQ(parse_yaml("n: \"9007199254740993\"\n").at("n").as_string(),
            "9007199254740993");
}

TEST(YamlDump, RoundTripsTree) {
  Json doc = Json::object();
  doc["top"]["count"] = Json(5);
  doc["top"]["name"] = Json("model one");
  doc["list"] = Json::array();
  doc["list"].push_back(Json(1));
  doc["list"].push_back(Json(2));
  doc["flag"] = Json(true);

  const Json reparsed = parse_yaml(dump_yaml(doc));
  EXPECT_EQ(reparsed.at("top").at("count").as_int(), 5);
  EXPECT_EQ(reparsed.at("top").at("name").as_string(), "model one");
  EXPECT_EQ(reparsed.at("list").as_array()[1].as_int(), 2);
  EXPECT_EQ(reparsed.at("flag").as_bool(), true);
}

TEST(YamlDump, QuotesAmbiguousStrings) {
  Json doc = Json::object();
  doc["a"] = Json("42");  // string that looks numeric must stay a string
  const Json reparsed = parse_yaml(dump_yaml(doc));
  EXPECT_TRUE(reparsed.at("a").is_string());
  EXPECT_EQ(reparsed.at("a").as_string(), "42");
}

TEST(YamlFile, WriteAndReadBack) {
  test::TempDir dir("yaml");
  Json doc = Json::object();
  doc["k"] = Json("v");
  write_yaml_file(dir.file("doc.yml"), doc);
  EXPECT_EQ(read_yaml_file(dir.file("doc.yml")).at("k").as_string(), "v");
}

TEST(YamlFile, MissingFileThrows) {
  EXPECT_THROW(read_yaml_file("/nonexistent/x.yml"), IoError);
}

TEST(YamlParse, EmptyDocumentIsEmptyObject) {
  const Json doc = parse_yaml("");
  EXPECT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.as_object().empty());
}

}  // namespace
}  // namespace alfi::io
