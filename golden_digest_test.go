package smartbadge

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/experiments"
	"smartbadge/internal/obs"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// goldenDigests pins the SHA-256 of FormatResult, FormatTimeline and the
// JSONL event trace of every run in digestMatrix. The values are amd64
// results: the Go spec lets other architectures fuse x*y+z into one FMA
// instruction (arm64 does), which changes low-order bits and therefore these
// digests until every deterministic multiply-add is explicitly rounded.
// A mismatch means an output byte moved; the failure log prints the full
// recomputed table.
var goldenDigests = map[string][3]string{
	"mixed/changepoint/none":         {"e3985670713e4e0d38e54a27b1b148da70c57454136a10efcb0d32ecfd162513", "dc71054787d77f5cc3d0d42d22153e1147b4d8184bb847ca6858a0b2a4a104c4", "aa87dc2f6ac71efb93c7cc86cc096b0878b8e2c20af5d0b38f53fb4e196d5bc3"},
	"mixed/changepoint/oracle":       {"a93059461e093f2c0d872571b9ac183b1b41c2c77983867d0f5a78f57a82348e", "a6aad70432849da19e1fb532bc7ce894e7279bd4f1a8d14e9692e3a61860c34e", "d7a830844e14a4a5f496411caed3a622c2d55cd4ed45bde590c3def0392c50fb"},
	"mixed/changepoint/renewal":      {"42e78760acf420d87c8c573adde8cec771737615bef247ce43529cd04c4f7f3a", "fa581000f52dcddd4a46933e93c7c434a33caaf2da5f7ae956ba66b5bf05944a", "7c2f1ed29d1bac937cd31762b94cf0c6ad88e4675aab1f927174b7e93327ad54"},
	"mixed/changepoint/timeout":      {"ceb6aac98cf5e97139dc2cff88022b53daa8ea6eadaa2922715774f09654053b", "c45f6d7005ff3e2e6a0210155fc5505404166288af65dc116d4c8a8e965f054d", "00cf6276bc5e0da5bf37d0cd8068991cd64d4296972b72d31bfa94f999546c7c"},
	"mixed/changepoint/tismdp":       {"08214902212627cd18b4540dae15ae7d9f9d17e878124ea9ef47eb983abe6424", "3acd4871a16231b96fc9de79459398ae7ab67f6f242eff89d8f85ce152295cc5", "afdd9b1372528e27181bb513e1c68ac303f7c7535edf154f9620d417424813ec"},
	"mixed/expavg/none":              {"28c5d745dd16c0840b7c51cf2356ac761cd6761eabb10a81471df9886859117f", "58c764d7cdc725d5c2e4a16a606bdfad86ac2ac2ebb52e5e3eeec0f144080585", "e2efc6e8de11da72df6552c04eacf5142c7ad5fc63eb74864e9d2aefa01584dd"},
	"mixed/expavg/oracle":            {"83499009218851ed65610c95a02956cff4f855b1c0a434b8825af9748a1f2b98", "86299cfc16b881a8332cfa15e133d96bb502952d8539dd5e96e55ba22352dffe", "e58896fabb0085779a3c59863b1d32cfbce75dadcc34dd9567354529bf607191"},
	"mixed/expavg/renewal":           {"4901997baa068e086b1b30cea2bc44602dbf16fae6937b849b015c4fc5fd635d", "b5ee77f70827051bfca2bfc55df326d1cad91fc323288b41dc53dd77bb9fe492", "bcc8255152d76ab31a8c2e890476a8fd1916309e8bf6f3d72cd21ca6288e0e4e"},
	"mixed/expavg/timeout":           {"d28ef920740b52e59ca5ec8be207dcada83b46affa669c58b0dd6265a12a9d30", "6145207f60dc50ad759ec072326dc83c423bdcb08ac2c9561500e4d164777d0a", "29c18e71a37d8ffc5171b219d380087cbb36fda3a4c35cb0c778bcdf368fd60a"},
	"mixed/expavg/tismdp":            {"24518175274ac7872d3994813ec5b4667a7aa16f2e8aa893b7c3c7cdf03075ac", "c2c39039102b9093d6b1d539a5f9182ed3601f8e03d381f200ea358d74d83be5", "7ca7861a436842de3e7f63cb9dc0cb5a8439fa5042aa91eae878c7d11b4211b9"},
	"mixed/ideal/none":               {"bf3d2e277feaaeeddacbf4510d6bf30f61880b6eef991658155806a599f20378", "c0fd528296949a4c035bed7cb9583e130a330c6b37e15219bb3609f125da8f0f", "d72824c263955850234455dac2f7ab8aab1d99303c02aef23576dedbfe32122c"},
	"mixed/ideal/oracle":             {"646d40131320fa9d064ca3256f1214cbbca852f18aef51f5b94ee633109f4bff", "414ac122af12a836ef3ab1ce53c0f74778d3ee4b6afbeee14b5e1d3738575cc3", "17f90535dd909d04c41b6be4965edaaefb0cdc78957836bbec61907b04d2b76e"},
	"mixed/ideal/renewal":            {"66076072e064bd4e2f548849857b2ebf40472edf60dc5ff4777f16cd7526e10e", "470a67662fb3564b205e195c3ce9ccf68b4a73bff7bba086ca400d8eb117aafb", "4af3ca81f1d955df02cbccab17b3493c0a8af439aa1104e8148132942e82cd28"},
	"mixed/ideal/timeout":            {"e230cb90505aa84c084efc0400d15800b64642e95410588ce09ec0bde4e55f4b", "7763c0d9592c9b77580b7767fa518ee082a1d63f270a52f01f876e7a8acd7b4d", "76854c120d821737e80e9c85431339d52f95cac25996f4bed22a6708646efd27"},
	"mixed/ideal/tismdp":             {"9ca87b0f912f52f9afd39c631a4ccccd1f8c79961a7443a51e57839754b5d6aa", "288c8a3549a9775037189463004615ca8ea79597056b2f32b262ed62675a7afe", "e5edea465cf5282a5b76801ee9b5bd7ba8ea9d359224b300d3a65a5a037addcc"},
	"mixed/max/none":                 {"7ecc6b6a1325d2a8ab3c0b5f02b925a1fe38144fb4d546facb8f2c89e2f40032", "c44575f78db4cc2418a56a854b23b3dbf6ef00fa04fdc9b3611d774228caf5c7", "43e41cb8a14aedebd98b5e322aa5a33cd4ad07efa35c49f58be44035c9e637ae"},
	"mixed/max/oracle":               {"864248c82c2d241c4c93b2c75c5939fd456d57c6f647e50e82b9bb7293ee4f7c", "f856b0bd6e65377b1dcf90db8af5997f550cb57551c1e5e7ee7573561f19215e", "b6f06ac2959a3838a3e19ee5e53bcf18193c04fd518ba3e87b29693d9226341b"},
	"mixed/max/renewal":              {"ab8ac043ab7d901265e4daa328988f68e5bf6b9647a1046db36af96527b4f239", "538338c6ba429bdf6cb30590769d8a83b30266a3c3cc8bac0d5d55444d49846c", "230890093542de64d3d358b626453f63e9b2b6d9b032b04805f71be74ea2ce1b"},
	"mixed/max/timeout":              {"a61162f577d0a71821eb91209d27bdec69c1837626771b0cd0d76ed674276348", "7e9335d47e2fcb0196c6730caa5bc13f7795b3aa8f38e7bdd110601dc5afe51c", "683c13a1cddc3a01b50d35bcba517ef78c71ec8270e6e4d43457c36b1250aff4"},
	"mixed/max/tismdp":               {"020d593bd6d45447ce2a4143073fe774f053c41bd1c7e791b1764e15f6cb3d33", "42aac1ffa66b6ae44eccfffbb18e222bfca8be688475dbb8e6275c4ad3635fa6", "084b527d1807092bccb45c35a3b599de2cf5c5443ccb362057e857901f5b5d2e"},
	"mp3/changepoint/none":           {"abec37628ab154ea72610b29678f108c27a8961115b37ad4a861650591e4f3d6", "a31ad812673b1a3597d803f572f57f2c9f4684644868a40e149a4184f360975d", "922e1d0889501c66d86c50dcdc12c35992b6f68e4f093dd4ac5ac0aaf58f89a5"},
	"mp3/changepoint/oracle":         {"fcc554c4a95abb5007b2302631a8d1538ad613fa30230306937da735b8fb73b0", "59e450f8422daa016e8343a3040e4016c3f851f6eb0b741083004acb32d0c279", "c07914e67fd0a6ddeba2ff92f18dc618a76fb0efa1205cc5b0b923eedd756e06"},
	"mp3/changepoint/renewal":        {"cd5a2688167f0133789e309eef0ee0c45d7086eadd5571e7941abb4c337ccefb", "88dcec334dbbd3474ebf1dd8cb163a042079a2ce6b96ec0df4bf9b8ac134fdbb", "d5cc4689c6ff22b96fda230225d1c27daf15aee9cf278425cf0b72e3ea7b6a1a"},
	"mp3/changepoint/renewal/mayhem": {"59a6e75b416215e4357cb9470b205ad36dddebce9c1f9f2e8e2b06b73edac708", "05d3f3624f912e851ff6f87b16ea3b8efab0881dd0042757490ace6978227351", "69bab1536c87322315238f4471c1688ea4e5039cf3a65da034fe7f5b457c206a"},
	"mp3/changepoint/timeout":        {"b141a6a6c66ae19f70b6eae6e75eecfcda9f0b6c8c1f0896885061decf257f3b", "8cb25e6369f830fc03d8b2693f7984e4ad0cf620d77390f30e07fba383147538", "7a044bff14563a9dbeff996322c32127b8f6a879c11c0f8b68764eda5989835b"},
	"mp3/changepoint/tismdp":         {"efebdf90dfe2498e062d7741c6b7d908895146c150194ee54a664bb1a2cab925", "eaac501c8e7610e2dc83f8714f97a832a6c5e05533ab45cac4e19ddad18b6247", "47fa7cf34e4e77fc933f50be66a96b5088093590d4211d90dd96af426938ce85"},
	"mp3/expavg/none":                {"dc124e7c1358a96354932ff17209bf6193a2f28c24c3973e97f78079011c1fc2", "4761d2c199eef1ec6e37c28a4ffa7fab9a7aa60dc6d1ecbbaf905e137991b4bd", "a92018cbb3865b95be31961135477f8bbb162204b612f8a9c404c93b021b4975"},
	"mp3/expavg/oracle":              {"d61ad4f95ec74def358eeebbde5df710723c4462268343b9b19ca229db249088", "3946ad11c4af0fb7cd300c21bd49783239723a1d436ee8ba6969c50423ed748a", "8349b3fd52291888539f8ca4e2c1a949acd3c76cc4932d51d6e6cc95f5712fae"},
	"mp3/expavg/renewal":             {"dbf1fe23b40d815e67c6f7a3740da76dcf5f2d133602da56f40965b529f16119", "b82c619858a4bbb139bf786a839c6c5395ca4071dffa5b924fbf2b25be1566e5", "9151bc5ce248fb61ca5adb7ba6e0694051fdcaa43373cbcbcf294419941e278c"},
	"mp3/expavg/timeout":             {"33b1d03da0c2bcd2a0bdb9666fd1adffdff73c5521acd981f5c93f6aed6ec0c7", "bb006b3ecdba4bbc65462a0abdc5cc1f603d5e176a71ab0b164a02fd04fd729c", "d2b6be9843e1259d8d31eaf1856e0343c9da149fb5bbec6c8dc596552898bd62"},
	"mp3/expavg/tismdp":              {"7e3f47a82dfa19fde20a2c73535285ac8142cd46ef82f6fcce9c60124c6681b1", "0f349f5c0cd25d529d0d71f22b2fe0229bb97522a43db8fcc35ed1991e1cdb3d", "4fec2b9fdc00d0b0191014f6de0aa5bb33e94a8ce026540447a96e19aef48e40"},
	"mp3/expavg/twolevel":            {"66b31bba781b8c38e277e57b451dbda00b36d455212f12951fae0f5f01be27ac", "66ebd850b5007545f2702a5160221ffa502915d4004d0a7a26ada4e5b29fdec0", "63b90856b7507dcd714a53e06160fe323af5df8b2133b41a002e7acfcba793ce"},
	"mp3/ideal/none":                 {"6f294c0ab253bc8fa73edf323a9a6ad495050660cb41e1e1ede03fc8f38ef047", "17a65a2164d50358d0f1ae4e9f2a3ececb883c723af0c0f79d79aa5154a0ee00", "195cf759fca7f5dd9f230b5e998050ead0f3fdf1b5ab2123ce62c1624f7fbe05"},
	"mp3/ideal/oracle":               {"f21c34c7c08cf02072b1e793eade4062fdda1febbd1bde4b1535c575dd4f98a7", "8289ce011855b3f82d8d54469fe2c3fe6c4ec1f5faf3a11d7cc7b7541fee2580", "9b18976bb4afa5e8efc3a5482191a8c3a8150cd91fb9b59181b534881642413d"},
	"mp3/ideal/renewal":              {"ad8f377cc35a798eb592410e6a02d46549dcf4711e4811a357ff903786474f3e", "b3841c3c73a2e25c2809dbce1878e772f18de0e96ab0ebf11a896eb009bff881", "e430143f76eb2a6524a6f7e6b0d5bcec68c4351023ece4fc6eeed32991ff0c53"},
	"mp3/ideal/timeout":              {"ad18144c3f1b305a5ad2ee4c23328db7b65978b1a0d9cbd8028775741eec512b", "147896476e48c010f7206f7be04661d7d00aa7ef29e4466312f5dc021cf41236", "5b0a5fa332b1b333c57735115a9b83544f67105ac061dbbd4c5bca97501ea77c"},
	"mp3/ideal/tismdp":               {"6586256c6a21435f1aaebba7301dd01f961b184d3d5fae41cd4e5d470073c2f8", "9916be966c788700151043507b35d10dd9b7240adb97c55f6999b848281050e4", "bafb98013730b4615e155e9a748a13b8bad7cc31df27a0fdca959204224579ea"},
	"mp3/max/none":                   {"f84cde61753b406602e908a1918f1010a348e8bb0f8d8622398dfda83a8dd334", "66815973b4da18f81c29b396d8514df23b030eb55e5941123992a6811be90183", "1afebcd147dc6c77bef536fbe29f2ae60aad9000741039e97b1e9300bec6e746"},
	"mp3/max/oracle":                 {"595b596d3041769f19c1d13a5c94ecc7e1d5977a5715ae20d20ae5cc18c137b8", "978dcbf9a882cb6091879f6b4cce50f8ac0d79abec63b92ac3cbaf8592379971", "57c2456e673b0e7026fb8329e9bfcdd4d133872e00660bc85f468d7c26ed4697"},
	"mp3/max/renewal":                {"fde30ec552f27f940917bed2bfb5988d71fe60628f7fa2606ac74a17222d1894", "54f3117b442e333ea879f098e007c568da674e61137ed41519465790a158e93b", "0c1e1263d30689347260e3021b1140948e9c32c1e32b2eb9cd30f72b86f597af"},
	"mp3/max/timeout":                {"d50fcd4b9d8ee497f9c02c458b91932127479366a1944480583fd04745ec50ac", "6c6a3093f62548595b85992a0aa910270f13abe64193bcfd2f5321f8f5f68925", "3d82e16a615102ad91bee95d87f0be339585e413deea35900f1a1fd4fa135225"},
	"mp3/max/tismdp":                 {"816bcb2472136cea0f19432cf78b2b498b94998d0c1e416d1f22406be984c912", "67b263ba20109fff3e9366d20161d7b84b6960c434ece511ffe92403e2334621", "3de0c42f4a9c2078aff2a7dacff5a386a27a65c059cd1c2f26813066253b8842"},
	"mpeg/changepoint/none":          {"4fcc21a0b0bbbe1e2f9469d4cf2300669d6a7c58f94305e44f5f0e31a521b436", "5c65305307b569c75bec2db129c5d8f3e1b7439895431c32fa1dda2298f48793", "28a112fe71c6efd3a4cd0cd525404ecc80dd64e7f11f202e266d79fbcadfb610"},
	"mpeg/changepoint/oracle":        {"ca580ce9d1a703d6c57e7a58c6f230d4ca226f63039877f3560f821b82a4bae7", "3dae71a83ca04e282cecbc47b5149b898d3e878ff05c3389a0dd34544ffa5f5b", "afd573f981ae2d7532d43de5159111ecb600ddda93f619eebe0e156ba0acf567"},
	"mpeg/changepoint/renewal":       {"b84ebac3f9b740e1b2d467c06919696f3867cef206a18a7109c274119eefbb91", "d4ec351d365ffc6ab83625d7a84f8dc9d234cc34b523def9b73900b251967f00", "7275c5852b0ace227cc88ef72fc13657fcff33a367e0bbe53a2d4dba613e758b"},
	"mpeg/changepoint/timeout":       {"746e1ec11f207acfa86d3d332120a9448b4dc71616303548ddef35a785f4780b", "202954ec81baf761d526128f49b8a515436f4c242e7898d5667d4139447e2431", "b5e7dc028f231dd70078857cf2dfce4b78ad790ff7214ad3c1996fe075eeb990"},
	"mpeg/changepoint/tismdp":        {"c6fef729e04a9919644068a284f24bc0c902ab53936d01e381faa546c3971937", "f357f96dc0c02c63dafcc4f6f5337e5332be3baab3f1ed74007d39ba81cd1cbd", "014c3c39b13c160792ddd678c2ca1c8021eaf5506756e1f86db574cdac22c59e"},
	"mpeg/expavg/none":               {"1719074451f279c93a96d704d8927888931920fd1446f0b64a469f2cc5c26d5a", "798a6bf95071997ef9a0458348c496127afcba07c920b335867539dc2000beb5", "a71bf9a267837525507f9f29d66d536ef789dfa46733715956ecd37e70c39e9a"},
	"mpeg/expavg/none/buffer2":       {"5fec521e5bd8e5fdd08e3004ca30b279f2d1330cc6e53fb9b8d2cfd67592e2d7", "a7301854e44806aaaa91c7258558875e7b33f868279a2643eab2c8ca2aa1bd92", "4a48dfa02d84add990c7cbef3d9c8fe3a161e736a9fa92a5c8c056e807027e5a"},
	"mpeg/expavg/oracle":             {"df89ff3e219ce6950b3cf81ae2592a5525372f2987c2b1264382075bcfe296fc", "eb1fb03f15701f26626b8c9ab007ab297192ce4e6b5add1f9f691e26372ed380", "f01db85f3a2a7f2ea0897915071abe4fae52c61f05763394b9599fe19fd4cc60"},
	"mpeg/expavg/renewal":            {"468e010ea82b561659d52bf336252f1c26080fc66863d182c990b03e0929b2ef", "7bbafb21a3a0cecde4c834cbb7e84e5b57dcefa0ca18a5c66f05ca4eacf5763b", "a34893d5f51081d0c84da9297d7b6207533164474dcf8d7321c4c897e138cccd"},
	"mpeg/expavg/timeout":            {"ff348ec3ff910862b9590c601c91bbbb173869edf03f7bc51af82b5e2feaa086", "c2e3d7cb6dda79b575d1d3de1b5ca3be6671269d03c5e83f571eb48e6aab9176", "412ea7bdeec62e0072ca547900a54aaa4403b72b22101a2365639c09a62572fe"},
	"mpeg/expavg/tismdp":             {"8d74851b15b6f3e294690d36a80bbeb31c0121194a2fd799d1799e24a7d78d4e", "7c285b062c627048a386145ac78996c84751135714bcc2ce0da82e98c57881ff", "9745e8ba6bd8b301cd6173ae0e2fcead881e9bd7b3d1713439586414861c64a1"},
	"mpeg/ideal/none":                {"bf6db101e97f457b95e061a9d4291314ab9ef0c290fac427cdfa6d21d0832290", "134a9e4afe6c18c4ce73f5edd5a4136387e3faac5fc20523469b8cbfed569a5f", "37a9472ae4ffe93a1f5047df1e6dbb292fcdb589c1e06396ade5c40630f01962"},
	"mpeg/ideal/oracle":              {"5427d21c89d7c6e5e0be7526910030045e641af41b3fc0aae6ab13193bb22289", "c6c9787bfa61c00c713db96605168ecd2ab7818327703e8ab0d3dc70b96435bc", "91582d2f7f1d86996b73eed5b98a6d6e48808671d973c3f9525fe8014821a720"},
	"mpeg/ideal/renewal":             {"6ac2ca13e51cb619ce159ba4bb17bb79dc772a910d1ae494c7b116faf93bde26", "5938cf16916d2582494379bf2bf1fdaa0bba75cbeee99cbf1d7471f7393984ea", "f79dfe0f8686b88fddd6380b5f1a67b82c946e0f74af73a83f2a9e7fa7e252cc"},
	"mpeg/ideal/timeout":             {"dba0c39dde7931766ca85a3a9775d279c6570c6ef13d798197b1fec97d620c52", "6472530efd9a6763bb11dcfa03231246a8e2ae38b2a4ef77883153a815a3b7c7", "0dffdb74f1d59fc82b84744f72799a1cf9ad797a19e777c2c1ff6b6a93c21de9"},
	"mpeg/ideal/tismdp":              {"021502f21b6382f54439f936f113699033e024862c6f4fe9dc0b2a7f27ed5fbe", "a8f06464748f8326fde55329148b0be54e0a6d078a1fd58fadcc8455ad17f4a6", "4c58dcf8a58d3400b1648bb21504493284e66994b09249ddefae3aef42576887"},
	"mpeg/max/none":                  {"9d2e365e74f02fd2aef7a9f5bfc0b97bb152e8194d50240ee48fee3386073e38", "5765491c6a649b71fadf4fdecf65dd03f7851f4279b794bbb767a32f30c4faa5", "b1af1ae24fe8718d44fe8af15106eaf1305608f11551f59acfa15034c954078e"},
	"mpeg/max/oracle":                {"d583b2553c525515bb436914b1f842c1cf267b7e7185ebe64612a812e7655916", "40809e794471c5ea55f894b9aee6fcbe163897b6d54549110fa1210569e7ade3", "3cf6b726a4ddd37b874d750dbd6bbc8b6cc08aba1f3ecb5631e8acef44ad65f1"},
	"mpeg/max/renewal":               {"67977258e6377f19a25755ca3a6cac5a19a3a2314c7027f7555a0461e8189002", "07466ffa9014f2fb0c4d6ee862b70bbc79a3765743b5a1fa0e99bac8e177d597", "2b0505028061f6c8216fc80ead01b92484010a490818a10f986dd5ed10f168dc"},
	"mpeg/max/timeout":               {"3b922ecd08e382d07ee96c2c846938927af2703c589cc21a15e033a91b7575ab", "a69e8fc89a5a64da9a448e3a77457cebc605ad9d14d6959015785906a512ecec", "e026644173c5f69a3d0a6eb3e51efd2d6553f97182ede443df7d69190994c11f"},
	"mpeg/max/tismdp":                {"3a64431d65b10bc2c6a350ee8a488de8e4695e6375b96d638b651f02d9a824be", "b88f80b560f1c40639fdc54c7e03fa39ea00ca385317c8891f90d8256459f90b", "abb164b97a0899a7eeb29943423a3a8f2877385cc7e65fad50a33b60080f9ab3"},
}

// digestClip returns c cut to its first two segments of at most maxS seconds
// each, keeping the rate change the detectors react to while keeping the
// trace short.
func digestClip(c workload.Clip, maxS float64) workload.Clip {
	n := min(2, len(c.Segments))
	segs := make([]workload.Segment, n)
	copy(segs, c.Segments[:n])
	for i := range segs {
		segs[i].Duration = min(segs[i].Duration, maxS)
	}
	c.Segments = segs
	return c
}

// digestTrace builds a short four-clip workload for app, separated by the
// Table 5 heavy-tailed idle gaps so every DPM policy has periods to act on
// and the idle model fits its Pareto tail.
func digestTrace(t *testing.T, app Application) *Trace {
	t.Helper()
	mp3 := func(label string) workload.Clip {
		c, ok := workload.MP3ClipByLabel(label)
		if !ok {
			t.Fatalf("unknown MP3 clip %q", label)
		}
		return c
	}
	var clips []workload.Clip
	switch app {
	case AppMP3:
		clips = []workload.Clip{mp3("A"), mp3("C"), mp3("E"), mp3("B")}
	case AppMPEG:
		clips = []workload.Clip{workload.Football(), workload.Terminator2(), workload.Football(), workload.Terminator2()}
	case AppMixed:
		clips = []workload.Clip{mp3("A"), workload.Football(), mp3("C"), workload.Terminator2()}
	default:
		t.Fatalf("no digest trace for %q", app)
	}
	for i := range clips {
		clips[i] = digestClip(clips[i], 4)
	}
	tr, err := workload.Generate(stats.NewRNG(5), clips, workload.GenerateOptions{
		Gap: experiments.Table5GapDistribution(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// digestOf hashes the three rendered outputs of one run.
func digestOf(res *Result, trace []byte) [3]string {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	return [3]string{
		sum([]byte(FormatResult(res))),
		sum([]byte(FormatTimeline(res, 72))),
		sum(trace),
	}
}

// digestMatrix runs every app × policy × DPM mode through Run, plus three
// runs that reach the simulator paths the matrix misses: a two-level timeout
// that deepens standby to off, a finite buffer that drops frames, and a fault
// scenario with the guardrails armed.
func digestMatrix(t *testing.T) map[string][3]string {
	t.Helper()
	out := make(map[string][3]string)
	traces := make(map[Application]*Trace)
	run := func(name string, opts Options) *Result {
		if traces[opts.Application] == nil {
			traces[opts.Application] = digestTrace(t, opts.Application)
		}
		var buf bytes.Buffer
		tracer := obs.NewTracer(&buf)
		opts.Trace = traces[opts.Application]
		opts.RecordTimeline = true
		opts.Obs = &obs.Obs{Trace: tracer}
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tracer.Flush(); err != nil {
			t.Fatalf("%s: flush trace: %v", name, err)
		}
		out[name] = digestOf(res, buf.Bytes())
		return res
	}
	for _, app := range []Application{AppMP3, AppMPEG, AppMixed} {
		for _, pol := range []Policy{PolicyIdeal, PolicyChangePoint, PolicyExpAvg, PolicyMax} {
			for _, mode := range []DPMMode{DPMNone, DPMTimeout, DPMRenewal, DPMTISMDP, DPMOracle} {
				run(fmt.Sprintf("%s/%s/%s", app, pol, mode), Options{Application: app, Policy: pol, DPM: mode})
			}
		}
	}
	if r := run("mpeg/expavg/none/buffer2", Options{Application: AppMPEG, Policy: PolicyExpAvg, DPM: DPMNone,
		BufferCap: 2}); r.FramesDropped == 0 {
		t.Fatal("finite buffer dropped no frames")
	}
	run("mp3/changepoint/renewal/mayhem", Options{Application: AppMP3, Policy: PolicyChangePoint, DPM: DPMRenewal,
		Faults: "mayhem", FaultSeed: 7})

	// Options has no two-level DPM mode, so the deepening run assembles the
	// simulator directly.
	app := experiments.MP3App()
	tr := traces[AppMP3]
	first := tr.Changes[0]
	ctrl, err := experiments.NewController(experiments.ExpAvg, app, first.ArrivalRate, first.DecodeRateMax)
	if err != nil {
		t.Fatal(err)
	}
	twoLevel, err := dpm.NewTwoLevelTimeout(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	res, err := sim.Run(sim.Config{
		Badge: device.SmartBadge(), Proc: sa1100.Default(), Trace: tr, Controller: ctrl,
		DPM: twoLevel, Kind: app.Kind, RecordTimeline: true, Obs: &obs.Obs{Trace: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.Deepens == 0 {
		t.Fatal("two-level timeout never deepened")
	}
	out["mp3/expavg/twolevel"] = digestOf(res, buf.Bytes())
	return out
}

// TestGoldenOutputDigests is the byte-identity oracle for the simulator and
// everything that renders its results: any change to an event order, an
// energy sum or a trace line shows up as a digest mismatch.
func TestGoldenOutputDigests(t *testing.T) {
	got := digestMatrix(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := len(got) != len(goldenDigests)
	for _, name := range names {
		if want, ok := goldenDigests[name]; !ok || want != got[name] {
			t.Errorf("%s: digests %v, want %v", name, got[name], want)
			failed = true
		}
	}
	if failed {
		var b strings.Builder
		for _, name := range names {
			d := got[name]
			fmt.Fprintf(&b, "\t%q: {%q, %q, %q},\n", name, d[0], d[1], d[2])
		}
		t.Logf("recomputed goldenDigests (%d runs):\n%s", len(names), b.String())
	}
}
